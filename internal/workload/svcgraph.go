// SvcGraph is the multi-tier service-graph workload: four machines in a
// frontend -> cache -> replicated-KV chain. Frontend threads issue Gets
// and Puts to the cache tier; cache workers answer hits locally and run
// misses and write-throughs against the KV replica group through their
// own embedded callers. Per-tier latency comes out of the obs service
// histograms ("frontend" end-to-end, "cache.fetch" for backend trips,
// "kv.replicate" for the replication path), so one report shows how a
// backend crash propagates up the graph.
package workload

import (
	"fmt"
	"io"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/svc"
)

// SvcGraphSpec sizes the service-graph workload. Crashes in the fault
// spec name machines by ChainRoles.
type SvcGraphSpec struct {
	ClusterOptions
	// Ops is how many operations each frontend thread issues; Frontends
	// the frontend thread count.
	Ops       int
	Frontends int
	// Workers is the cache tier's thread-pool size; Capacity its entry
	// bound (FIFO eviction beyond it).
	Workers  int
	Capacity int
	// Shards/Groups shape the backend shard map; Keyspan each frontend's
	// private key range (small, so repeated Gets hit the cache);
	// PutPer10k the write-through mix.
	Shards    int
	Groups    int
	Keyspan   uint64
	PutPer10k int
	// Seed drives the frontend scripts.
	Seed uint64
	// RPCTimeout bounds each tier's per-attempt receive; RenewEvery,
	// IdleExit and DeadAfter tune the replicas and links as in KVSpec
	// (arch-scaled defaults when zero).
	RPCTimeout machine.Duration
	RenewEvery machine.Duration
	IdleExit   machine.Duration
	DeadAfter  machine.Duration
}

// DefaultSvcGraph returns the standard three-tier run: three frontend
// threads over a two-worker cache with a capacity squeeze, a read-heavy
// mix so the cache actually absorbs traffic.
func DefaultSvcGraph() SvcGraphSpec {
	return SvcGraphSpec{
		Ops:       80,
		Frontends: 3,
		Workers:   2,
		Capacity:  16,
		Keyspan:   12,
		PutPer10k: 1500,
		Seed:      1991,
	}
}

// SvcGraphResult reports one service-graph run.
type SvcGraphResult struct {
	Cluster
	Cache    *svc.CacheConfig
	Replicas [svc.NumRanks]*svc.ReplicaConfig

	Completed  int
	Failed     int
	Mismatches uint64
	Salvaged   uint64
}

// ReplicaTotals sums the backend replicas' service counters.
func (r *SvcGraphResult) ReplicaTotals() svc.ReplicaStats {
	kv := KVResult{Replicas: r.Replicas}
	return kv.ReplicaTotals()
}

// ChainRoles are the frontend -> cache -> replicated-KV chain's machines,
// shared by the service graph and the storm.
var ChainRoles = []string{"frontend", "cache", "kv primary", "kv backup"}

// chainCluster declares the chain: the frontend reaches the cache on its
// only link; the cache reaches rank 0 on Links[1] and rank 1 on
// Links[2]; the replicas reach each other on their Links[1].
func chainCluster(flavor kern.Flavor, arch machine.Arch, opts ClusterOptions, deadAfter machine.Duration) ClusterSpec {
	return ClusterSpec{
		ClusterOptions: opts,
		Config:         kern.Config{Flavor: flavor, Arch: arch},
		Roles:          ChainRoles,
		Links:          [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}},
		Reliable:       true, DeadAfter: deadAfter,
		Observe: true,
	}
}

// RunSvcGraph boots and drives the three-tier cluster: machine 0 runs
// the frontend threads, machine 1 the cache tier, machines 2 and 3 the
// KV replicas.
func RunSvcGraph(flavor kern.Flavor, arch machine.Arch, spec SvcGraphSpec) *SvcGraphResult {
	frontends := max(spec.Frontends, 1)
	workers := spec.Workers
	if workers <= 0 {
		workers = 2
	}
	ops := spec.Ops
	if ops <= 0 {
		ops = 80
	}
	tmo := provisionTimeouts(arch, spec.RPCTimeout, spec.RenewEvery, spec.IdleExit, spec.DeadAfter)
	res := &SvcGraphResult{}
	res.Cluster = Boot(chainCluster(flavor, arch, spec.ClusterOptions, tmo.deadAfter))
	frontend, cache := res.Machines[0], res.Machines[1]

	smap := svc.NewShardMap(spec.Shards, spec.Groups)

	// KV replicas, as in the KV workload but with the cache's workers as
	// their only clients and the peer on Links[1].
	for rank, s := range res.Machines[2:] {
		rcfg := &svc.ReplicaConfig{
			Rank: rank, PeerRank: svc.NumRanks - 1 - rank,
			Map: smap, PeerLink: 1, Clients: workers,
			RenewEvery: tmo.renewEvery, IdleExit: tmo.idleExit,
		}
		res.Replicas[rank] = rcfg
		s.RegisterService("kv-replica", func(s *kern.System) {
			svc.InstallReplica(s, rcfg)
		})
	}

	// Cache tier: durable config, volatile contents — a cache crash comes
	// back empty and refills from the backend.
	ccfg := &svc.CacheConfig{
		Map: smap, Links: [svc.NumRanks]int{1, 2},
		Workers: workers, Capacity: spec.Capacity,
		Frontends: frontends, FirstClientID: 0,
		Timeout: tmo.rpcTimeout, IdleExit: tmo.idleExit,
	}
	res.Cache = ccfg
	cache.RegisterService("cache", func(s *kern.System) {
		svc.InstallCache(s, ccfg)
	})

	// Frontend threads: plain callers aimed at the cache port. Both rank
	// slots route over the frontend's single link — the cache is the only
	// service they know.
	fronts := make([]*svc.Caller, frontends)
	for j := range fronts {
		fronts[j] = &svc.Caller{
			Sys: frontend, Name: fmt.Sprintf("fe%d", j), ID: j,
			Map: smap, Links: [svc.NumRanks]int{0, 0},
			Port: svc.CachePortName, Timeout: tmo.rpcTimeout,
			HistName: "frontend",
			Ops:      kvOps(spec.Seed, j, ops, spec.Keyspan, spec.PutPer10k),
			Track:    true,
		}
	}
	frontend.RegisterService("frontends", func(s *kern.System) {
		ct := s.NewTask("frontend")
		for _, f := range fronts {
			f.Reset(s)
			s.Start(ct.NewThread(f.Name, f, 10))
		}
	})

	res.drive()
	for _, f := range fronts {
		res.Completed += f.Stats.Done
		res.Failed += f.Stats.Failed
		res.Mismatches += f.Stats.Mismatches
		res.Salvaged += f.Stats.Salvaged
	}
	res.Recovery.Salvaged = res.Salvaged
	res.Recovery.Failed = uint64(res.Failed)
	return res
}

// WriteSvcGraphReport prints the three-tier run in machsim's output
// format: headline, tier counters, merged per-tier latency lines, then
// the standard per-machine sections.
func WriteSvcGraphReport(w io.Writer, flavor kern.Flavor, arch machine.Arch, res *SvcGraphResult, opt NetRPCReportOptions) {
	fmt.Fprintf(w, "SvcGraph on %v/%v — %d frontend ops completed (%d failed, %d mismatches) in %.2f simulated ms (%d cluster steps)\n",
		flavor, arch, res.Completed, res.Failed, res.Mismatches,
		float64(res.Elapsed)/1e6, res.Steps)
	cs := res.Cache.Stats
	fmt.Fprintf(w, "cache: %d hits, %d misses, %d write-throughs, %d evictions\n",
		cs.Hits, cs.Misses, cs.WriteThroughs, cs.Evictions)
	t := res.ReplicaTotals()
	fmt.Fprintf(w, "services: %d elections, %d fencing rejections, %d deposed, %d rejoins served, %d syncs\n",
		t.Elections, t.FencingRejections, t.Deposed, t.RejoinsServed, t.Syncs)
	fmt.Fprintf(w, "  leader gets %d, puts %d, replicated %d, solo acks %d\n",
		t.Gets, t.Puts, t.Replicated, t.SoloAcks)
	writeServiceLatency(w, res.Machines, res.Elapsed,
		[]string{"frontend", "cache.fetch", "kv.replicate"})
	writeCritPathSection(w, res.Machines)
	res.writeMachineSections(w, opt)
	res.writeRecovery(w, false)
}
