package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds is the process's CPU time so far, user plus system, over
// all threads. The benchmark times host work in CPU time because, unlike
// wall time, it excludes the time a hypervisor steals from the VM: on
// the 2-core VM the benchmark was sized on, per-run medians of wall
// time drifted by up to a fifth from run to run while CPU time held
// within a few percent.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// memSnap is the Go runtime's cumulative allocation and GC state at one
// instant, read without stopping the world.
type memSnap struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64
	totalCPU     float64
}

var snapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readMem() memSnap {
	s := make([]metrics.Sample, len(snapSamples))
	copy(s, snapSamples)
	metrics.Read(s)
	return memSnap{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// heapPeak samples the bytes of live-or-unswept heap objects every
// millisecond until stop is called, and keeps the largest reading: the
// Go heap high-water of whatever runs meanwhile.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends the sampling, waits for the sampler to exit, and returns
// the peak in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}

// settle collects garbage so each measured iteration starts from the
// same heap.
func settle() { runtime.GC() }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending-sorted slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
