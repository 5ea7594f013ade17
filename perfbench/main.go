// Command perfbench is the repository benchmark. It runs one named
// workload of the simulator repeatedly for a host-time budget, checks
// every run's outputs, and prints the metrics by name and unit, ending
// with one JSON line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload kv-crash --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1
// prints the per-layer metrics of a separate traced run (CPU profile,
// layer spans, ladder rungs, held-out seed). README.md lists the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spans accumulates the host CPU seconds the benchmark spent inside its
// own calls into each layer, by metric name.
type spans map[string]float64

func (s spans) time(name string, f func()) {
	t := cpuSeconds()
	f()
	s[name] += cpuSeconds() - t
}

// A run boots the workload at least minSetupReps times and for at least
// setupBudget to time setup_s, but no more than maxSetupReps times: a
// boot takes from a fraction of a millisecond to tens of milliseconds.
const (
	minSetupReps = 5
	maxSetupReps = 1000
	setupBudget  = time.Second
)

// heldOutSalt derives the held-out seed, which no sizing run used.
const heldOutSalt = 0x6a09e667f3bcc909

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sample is one measured iteration: its outcome plus what the host paid.
type sample struct {
	it      *iteration
	cpuS    float64
	wallS   float64
	allocMB float64
	peakMB  float64
	mallocs float64
	gcs     float64
	gcCPU   float64
}

func measure(w *workloadDef, seed uint64, tiny bool) sample {
	settle()
	before := readMem()
	peak := startHeapPeak()
	t, c := time.Now(), cpuSeconds()
	it := w.run(seed, tiny)
	cpu, wall := cpuSeconds()-c, time.Since(t).Seconds()
	peakBytes := peak.stop()
	after := readMem()
	s := sample{
		it:      it,
		cpuS:    cpu,
		wallS:   wall,
		allocMB: float64(after.allocBytes-before.allocBytes) / 1e6,
		peakMB:  float64(peakBytes) / 1e6,
		mallocs: float64(after.allocObjects - before.allocObjects),
		gcs:     float64(after.gcCycles - before.gcCycles),
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		s.gcCPU = (after.gcCPU - before.gcCPU) / cpu
	}
	return s
}

// runner accumulates a run's verdict: every iteration passes its
// correctness gate and reproduces the first iteration's simulated
// outcomes exactly.
type runner struct {
	w         *workloadDef
	tiny      bool
	log       io.Writer
	ref       map[string]float64
	attempted int
	failed    int
}

// judge counts one iteration; a run at another seed passes compare
// false, since only its gate applies.
func (r *runner) judge(label string, it *iteration, compare bool) {
	r.attempted++
	bad := it.gate
	if bad == nil && compare {
		if r.ref == nil {
			r.ref = it.sim
		} else if d := diffSim(r.ref, it.sim); d != "" {
			bad = fmt.Errorf("not deterministic: %s", d)
		}
	}
	if bad != nil {
		r.failed++
		fmt.Fprintf(r.log, "FAIL %s %s: %v\n", r.w.name, label, bad)
	}
}

// diffSim names the first simulated outcome two runs disagree on.
func diffSim(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

// setup boots the workload repeatedly and returns the median setup
// seconds and the median of each boot span.
func setup(w *workloadDef, tiny bool) (float64, spans) {
	var total []float64
	per := map[string][]float64{}
	start := time.Now()
	for len(total) < minSetupReps || (len(total) < maxSetupReps && time.Since(start) < setupBudget) {
		settle()
		sp := spans{}
		t := cpuSeconds()
		w.boot(tiny, sp)
		total = append(total, cpuSeconds()-t)
		for k, v := range sp {
			per[k] = append(per[k], v)
		}
	}
	med := spans{}
	for k, vs := range per {
		med[k] = median(vs)
	}
	return median(total), med
}

// loop measures iterations at seed until budget has passed, and at
// least twice so every run checks determinism.
func (r *runner) loop(seed uint64, budget time.Duration, label string) []sample {
	var out []sample
	start := time.Now()
	for len(out) < 2 || time.Since(start) < budget {
		s := measure(r.w, seed, r.tiny)
		r.judge(fmt.Sprintf("%s %d", label, len(out)), s.it, true)
		out = append(out, s)
	}
	return out
}

func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// runEndToEnd is a --trace 0 run.
func runEndToEnd(w *workloadDef, seed uint64, budget time.Duration, tiny bool, log io.Writer) result {
	r := &runner{w: w, tiny: tiny, log: log}
	setupS, _ := setup(w, tiny)
	ss := r.loop(seed, budget, "run")
	ref := ss[0].it.sim
	m := map[string]float64{
		"setup_s":        setupS,
		"cpu_s":          medianOf(ss, func(s sample) float64 { return s.cpuS }),
		"host_ops_per_s": medianOf(ss, func(s sample) float64 { return s.it.ops / s.it.host["kern.drive_s"] }),
		"alloc_mb":       medianOf(ss, func(s sample) float64 { return s.allocMB }),
		"peak_heap_mb":   medianOf(ss, func(s sample) float64 { return s.peakMB }),
		"sim_ms":         ref["sim_ms"],
		"sim_p50_us":     ref["sim_p50_us"],
		"sim_p99_us":     ref["sim_p99_us"],
	}
	return finish(r, endToEnd, m)
}

// runTraced is a --trace 1 run: two untraced iterations as the overhead
// and determinism reference, CPU-profiled iterations for the budget,
// one held-out-seed iteration, and the ladder rungs.
func runTraced(w *workloadDef, seed uint64, budget time.Duration, tiny bool, log io.Writer) result {
	r := &runner{w: w, tiny: tiny, log: log}
	_, boot := setup(w, tiny)
	base := r.loop(seed, 0, "untraced")

	var traced []sample
	prof, err := profileCPU(func() { traced = r.loop(seed, budget, "traced") })
	if err != nil {
		fmt.Fprintf(log, "FAIL %s: cpu profile: %v\n", w.name, err)
		r.failed++
	}

	m := map[string]float64{}
	for k, v := range base[0].it.sim {
		m[k] = v
	}
	for _, k := range []string{"kern.boot_s", "obs.enable_s"} {
		m[k] = boot[k]
	}
	for _, k := range []string{"kern.drive_s", "check.linearizable_s", "obs.critpath_s", "workload.report_s"} {
		m[k] = medianOf(base, func(s sample) float64 { return s.it.host[k] })
	}
	baseWall := medianOf(base, func(s sample) float64 { return s.wallS })
	tracedWall := medianOf(traced, func(s sample) float64 { return s.wallS })
	m["wall_s"] = baseWall
	m["trace.wall_s"] = tracedWall
	m["trace.overhead_ratio"] = tracedWall / baseWall
	m["core.ns_per_step"] = 1e9 * m["kern.drive_s"] / m["core.steps"]
	m["runtime.gc_cycles"] = medianOf(base, func(s sample) float64 { return s.gcs })
	m["runtime.gc_cpu_share"] = medianOf(base, func(s sample) float64 { return s.gcCPU })
	m["runtime.mallocs_per_op"] = medianOf(base, func(s sample) float64 { return s.mallocs / s.it.ops })
	for mod, share := range prof.shares {
		m[mod+".host_share"] = share
	}
	m["core.unwind_share"] = prof.unwind

	held := seed ^ heldOutSalt
	h := w.run(held, tiny)
	r.judge("held-out seed", h, false)
	fmt.Fprintf(log, "held-out seed: %d\n", held)
	for _, k := range []string{"paper_err_pct", "sim_ms", "sim_p50_us", "sim_p99_us"} {
		m["heldout."+k] = h.sim[k]
	}

	for k, v := range ladder(tiny) {
		m[k] = v
	}
	if w.name == "mtload-64" {
		par := &workloadDef{name: w.name, run: func(seed uint64, tiny bool) *iteration {
			spec := mtloadSpec(seed, tiny)
			spec.Parallel = true
			return runMTLoadSpec(spec)
		}}
		ps := measure(par, seed, tiny)
		r.judge("parallel", ps.it, true)
		m["kern.par_speedup"] = baseWall / ps.wallS
	}
	m["host.nproc"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	return finish(r, perLayer, m)
}

// finish renders the run's metrics, in catalogue order and with units.
func finish(r *runner, defs []metricDef, m map[string]float64) result {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(r.log, "FAIL %s: metric %s is %v\n", r.w.name, d.name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

// hostLine records the host every result was measured on.
func hostLine() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printResult(w io.Writer, name string, traced bool, defs []metricDef, res result) error {
	fmt.Fprintln(w, hostLine())
	fmt.Fprintf(w, "workload: %s traced=%v correct=%v attempted=%d failed=%d\n",
		name, traced, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all of them in turn")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	secs := flag.Int("seconds", 10, "host seconds to measure each workload for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	flag.Parse()
	selected := workloads
	if *name != "all" {
		w, ok := lookup(*name)
		selected = []*workloadDef{w}
		if !ok {
			selected = nil
		}
	}
	if len(selected) == 0 || *secs < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s|all --seed N --seconds N --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	budget := time.Duration(*secs) * time.Second
	for _, w := range selected {
		run, defs := runEndToEnd, endToEnd
		if *trace == 1 {
			run, defs = runTraced, perLayer
		}
		res := run(w, *seed, budget, false, os.Stderr)
		if err := printResult(os.Stdout, w.name, *trace == 1, defs, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}
