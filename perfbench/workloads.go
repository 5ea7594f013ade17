package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/stats"
	"repro/internal/svc"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload; README.md gives each one's
// rationale. boot performs the workload's machine bring-up without
// simulating a step (setup_s); run performs one whole measured
// iteration from the seed.
type workloadDef struct {
	name string
	boot func(tiny bool, sp spans)
	run  func(seed uint64, tiny bool) *iteration
}

var workloads = []*workloadDef{
	{
		name: "paper-tables",
		boot: bootPaperTables,
		run:  runPaperTables,
	},
	{
		name: "kv-crash",
		boot: func(tiny bool, sp spans) {
			bootProbe(sp, bootShape{
				machines: 4, ring: obs.DefaultCapacity,
				links:    [][2]int{{0, 1}, {0, 2}, {3, 1}, {3, 2}, {1, 2}},
				reliable: true,
				threads:  []int{2, 1, 1, 2},
			})
		},
		run: runKVCrash,
	},
	{
		name: "chain-storm",
		boot: func(tiny bool, sp spans) {
			bootProbe(sp, bootShape{
				machines: 4, ring: obs.DefaultCapacity,
				links:    [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}},
				reliable: true,
				threads:  []int{24, 3, 1, 1},
			})
		},
		run: runChainStorm,
	},
	{
		name: "mtload-64",
		boot: func(tiny bool, sp spans) {
			m, perTenant := mtloadSize(tiny)
			sh := bootShape{machines: m, ring: 512, threads: make([]int, m)}
			for p := 0; p < m/2; p++ {
				sh.links = append(sh.links, [2]int{2 * p, 2*p + 1})
				sh.threads[2*p] = 4 * perTenant / (m / 2)
				sh.threads[2*p+1] = 4
			}
			bootProbe(sp, sh)
		},
		run: runMTLoad,
	},
}

func lookup(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// iteration is the outcome of one measured run of a workload.
type iteration struct {
	// ops is the simulated operations completed: kernel blocks and
	// Table-3 round trips, client KV ops, completed arrivals, or
	// session RPCs.
	ops float64
	// gate is nil when every correctness check passed.
	gate error
	// sim holds every simulated outcome and exact count by metric name;
	// a deterministic simulator repeats it exactly for a seed.
	sim map[string]float64
	// host holds host-time spans the benchmark recorded around its
	// calls into the layers (seconds), by metric name.
	host spans
}

func newIteration() *iteration {
	return &iteration{sim: map[string]float64{}, host: spans{}}
}

func (it *iteration) fail(format string, args ...any) {
	if it.gate == nil {
		it.gate = fmt.Errorf(format, args...)
	}
}

// bootShape is what setup_s boots for a cluster workload: its machines
// with their event rings, the links between them (running the reliable
// netmsg protocol or not), and the user threads started on each before
// the first simulated step.
type bootShape struct {
	machines int
	ring     int
	links    [][2]int
	reliable bool
	threads  []int
}

// exitProgram is a user program that exits when first run; the boot
// probe only needs its threads created and made runnable.
type exitProgram struct{}

func (exitProgram) Next(*core.Env, *core.Thread) core.Action { return core.Exit() }

func bootProbe(sp spans, sh bootShape) {
	cfg := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100}
	systems := make([]*kern.System, sh.machines)
	sp.time("kern.boot_s", func() {
		for i := range systems {
			systems[i] = kern.New(cfg)
		}
	})
	sp.time("obs.enable_s", func() {
		for i, s := range systems {
			s.EnableObservation(sh.ring).SetHost(i)
		}
	})
	used := make([]int, len(systems))
	next := func(i int) *dev.Netmsg {
		s := systems[i]
		if used[i] == len(s.Links) {
			s.AddLink()
		}
		used[i]++
		return s.Links[used[i]-1]
	}
	for _, l := range sh.links {
		a, b := next(l[0]), next(l[1])
		dev.Connect(a.NIC, b.NIC, 0)
		if sh.reliable {
			a.EnableReliable()
			b.EnableReliable()
		}
	}
	for i, s := range systems {
		task := s.NewTask("probe")
		for j := 0; j < sh.threads[i]; j++ {
			s.Start(task.NewThread(fmt.Sprintf("probe-%d", j), exitProgram{}, 10))
		}
	}
}

// ---------------------------------------------------------------------
// paper-tables
// ---------------------------------------------------------------------

// paperSize is the Tables 1-2 duration scale, how many derived seeds
// run the Tables 1-2 mixes, and the Table-3 loop length of one
// iteration. The p99 of the mixes' RPC round trips sits in their rare
// remote-latency tail; pooling four seeds holds it within a few percent
// from seed to seed, where one seed at four times the scale does not.
func paperSize(tiny bool) (scale float64, seeds, iters int) {
	if tiny {
		return 0.005, 1, 100
	}
	return 0.05, 4, 5000
}

// paperRing is the event-ring capacity of the Tables 1-2 machines: the
// histograms the latency metrics read are maintained online, so the
// ring only needs to exist.
const paperRing = 512

// maxCellErr is how far a Table-3 cell may sit from the paper's value.
const maxCellErr = 0.20

type paperBoot struct {
	mixes []*workload.Instance
	rpcs  []*kern.System
	pings []*experiments.PingClient
}

func bootPaper(seed uint64, tiny bool, sp spans) *paperBoot {
	scale, seeds, iters := paperSize(tiny)
	pb := &paperBoot{}
	sp.time("kern.boot_s", func() {
		for i := 0; i < seeds; i++ {
			for _, spec := range workload.Specs() {
				spec = spec.Scale(scale)
				sys := workload.NewSystem(kern.MK40, machine.ArchToshiba5200, spec)
				sys.EnableObservation(paperRing)
				pb.mixes = append(pb.mixes, workload.Install(sys, spec, subSeed(seed, i)))
			}
		}
		for _, arch := range experiments.Arches {
			for _, flavor := range experiments.Flavors {
				sys := kern.New(kern.Config{Flavor: flavor, Arch: arch, DisableCallout: true})
				pb.rpcs = append(pb.rpcs, sys)
				pb.pings = append(pb.pings, experiments.SetupNullRPC(sys, iters))
			}
		}
	})
	return pb
}

func bootPaperTables(tiny bool, sp spans) { bootPaper(1, tiny, sp) }

func runPaperTables(seed uint64, tiny bool) *iteration {
	it := newIteration()
	_, _, iters := paperSize(tiny)
	pb := bootPaper(seed, tiny, it.host)

	var machines []*kern.System
	var errs []float64
	rtt := &obs.Histogram{}
	var simNS float64
	it.host.time("kern.drive_s", func() {
		for _, inst := range pb.mixes {
			sys := inst.Sys
			it.sim["core.steps"] += float64(sys.Run(sys.K.Clock.Now() + machine.Time(inst.Spec.Duration)))
		}
	})
	type t2 struct{ blocks, handoffs, recognitions uint64 }
	pooled := map[string]*t2{}
	for _, inst := range pb.mixes {
		sys := inst.Sys
		st := sys.K.Stats
		p := pooled[inst.Spec.Name]
		if p == nil {
			p = &t2{}
			pooled[inst.Spec.Name] = p
		}
		p.blocks += st.TotalBlocks()
		p.handoffs += st.Handoffs
		p.recognitions += st.Recognitions
		it.ops += float64(st.TotalBlocks())
		simNS += float64(sys.K.Clock.Now())
		rtt.Merge(sys.K.Obs.Hist[obs.LatRPCRoundTrip])
		machines = append(machines, sys)
	}
	for _, spec := range workload.Specs() {
		p := pooled[spec.Name]
		ph, pr := experiments.PaperTable2Percent(spec.Name)
		errs = append(errs,
			relErr(stats.Percent(p.handoffs, p.blocks), ph),
			relErr(stats.Percent(p.recognitions, p.blocks), pr))
	}

	cell := 0
	for i, arch := range experiments.Arches {
		for j, flavor := range experiments.Flavors {
			sys := pb.rpcs[i*len(experiments.Flavors)+j]
			ping := pb.pings[i*len(experiments.Flavors)+j]
			var exc float64
			it.host.time("kern.drive_s", func() {
				it.sim["core.steps"] += float64(sys.Run(0))
				exc = experiments.ExceptionRTT(flavor, arch, iters)
			})
			rpc := (ping.MarkEnd - ping.MarkStart).Micros() / float64(iters)
			prpc, pexc := experiments.PaperTable3(arch, flavor)
			for _, c := range []struct{ sim, paper float64 }{{rpc, prpc}, {exc, pexc}} {
				name := t3Cells[cell]
				cell++
				it.sim[name] = c.sim
				e := relErr(c.sim, c.paper)
				errs = append(errs, e)
				if e > 100*maxCellErr {
					it.fail("%s = %.1f sim us, %.0f%% from the paper's %.0f", name, c.sim, e, c.paper)
				}
			}
			it.ops += float64(2 * iters)
			simNS += float64(sys.K.Clock.Now())
			machines = append(machines, sys)
		}
	}

	it.sim["paper_err_pct"] = mean(errs)
	it.sim["sim_ms"] = simNS / 1e6
	it.sim["sim_p50_us"] = float64(rtt.Quantile(0.50)) / 1e3
	it.sim["sim_p99_us"] = float64(rtt.Quantile(0.99)) / 1e3
	it.sim["sim_samples"] = float64(rtt.Count)
	it.sim["obs.ring_mb"] = ringMB(len(pb.mixes), paperRing)
	machineCounters(it, machines)
	return it
}

func relErr(sim, paper float64) float64 { return 100 * math.Abs(sim-paper) / paper }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ringMB(machines, capacity int) float64 {
	return float64(machines*capacity) * float64(unsafe.Sizeof(obs.Event{})) / 1e6
}

// ---------------------------------------------------------------------
// kv-crash
// ---------------------------------------------------------------------

// kvOpsPerCaller sizes kv-crash; the key range grows with it so no key
// collects more operations than the linearizability checker's 64-op
// per-key search bound.
func kvOpsPerCaller(tiny bool) int {
	if tiny {
		return 60
	}
	return 2000
}

func runKVCrash(seed uint64, tiny bool) *iteration {
	it := newIteration()
	spec := workload.DefaultKV()
	spec.Ops = kvOpsPerCaller(tiny)
	spec.Clients = 2
	spec.PutPer10k = 4000
	spec.Keyspan = uint64(max(32, spec.Ops/16))
	spec.Seed = seed
	spec.FaultSeed = seed
	spec.FaultSpec.Crashes = []fault.Crash{{
		Machine:     1, // the initial primary
		At:          machine.Duration(40 * 1e6),
		RebootAfter: machine.Duration(160 * 1e6),
	}}

	var res *workload.KVResult
	it.host.time("kern.drive_s", func() {
		res = workload.RunKV(kern.MK40, machine.ArchDS3100, spec)
	})
	attempted := 2 * spec.Clients * spec.Ops
	it.ops = float64(res.Completed)
	if res.Completed+res.Failed != attempted {
		it.fail("%d completed + %d failed of %d ops", res.Completed, res.Failed, attempted)
	}
	if res.Mismatches != 0 {
		it.fail("%d reads contradicted acknowledged writes", res.Mismatches)
	}
	checkHistory(it, res.History, res.Check, res.SplitBrain)

	var lat []float64
	for _, op := range res.History {
		if op.Ok {
			lat = append(lat, float64(op.Return-op.Invoke)/1e3)
		}
	}
	setLatency(it, lat)
	it.sim["sim_ms"] = float64(res.Elapsed) / 1e6
	it.sim["fail_frac"] = float64(res.Failed) / float64(attempted)
	it.sim["core.steps"] = float64(res.Steps)
	it.sim["workload.ops"] = float64(res.Completed)
	rt := res.ReplicaTotals()
	replicaCounters(it, rt)
	it.sim["svc.redirects"] = float64(res.Redirects)
	it.sim["svc.failovers"] = float64(res.Failovers)
	it.sim["svc.salvaged"] = float64(res.Salvaged)
	it.sim["svc.kvop_sim_p99_us"] = serviceP99(res.Machines, "kv.op")
	it.sim["svc.replicate_sim_p99_us"] = serviceP99(res.Machines, "kv.replicate")
	it.sim["obs.ring_mb"] = ringMB(len(res.Machines), obs.DefaultCapacity)
	machineCounters(it, res.Machines)
	if it.sim["kern.crashes"] != 1 || it.sim["kern.reboots"] != 1 {
		it.fail("%v crashes and %v reboots, want 1 and 1", it.sim["kern.crashes"], it.sim["kern.reboots"])
	}

	it.host.time("workload.report_s", func() {
		var buf bytes.Buffer
		workload.WriteKVReport(&buf, kern.MK40, machine.ArchDS3100, res, workload.NetRPCReportOptions{})
	})
	return it
}

// checkHistory re-checks a KV history with the benchmark's own call
// into the checker and gates on the verdict: linearizable, no key over
// the search bound, and no (group, epoch) acked by both ranks.
func checkHistory(it *iteration, h []check.Op, inRun check.Result, splitBrain []check.AckKey) {
	var res check.Result
	it.host.time("check.linearizable_s", func() { res = check.Linearizable(h) })
	if !res.Linearizable || res.SkippedKeys != 0 {
		it.fail("history: %v", res)
	}
	if res.Linearizable != inRun.Linearizable || res.Ops != inRun.Ops {
		it.fail("checker verdict differs from the run's own: %v vs %v", res, inRun)
	}
	if len(splitBrain) != 0 {
		it.fail("split brain: %v", splitBrain)
	}
	it.sim["check.ops"] += float64(res.Ops)
	it.sim["check.keys"] += float64(res.Keys)
	it.sim["check.skipped_keys"] += float64(res.SkippedKeys)
}

func replicaCounters(it *iteration, rt svc.ReplicaStats) {
	it.sim["svc.gets"] = float64(rt.Gets)
	it.sim["svc.puts"] = float64(rt.Puts)
	it.sim["svc.replicated"] = float64(rt.Replicated)
	it.sim["svc.elections"] = float64(rt.Elections)
	it.sim["svc.fencing_rejections"] = float64(rt.FencingRejections)
}

// setLatency sets sim_p50_us/sim_p99_us exactly from per-op latencies
// in simulated microseconds.
func setLatency(it *iteration, lat []float64) {
	sort.Float64s(lat)
	it.sim["sim_p50_us"] = percentile(lat, 0.50)
	it.sim["sim_p99_us"] = percentile(lat, 0.99)
	it.sim["sim_samples"] = float64(len(lat))
}

// serviceHist merges one named service histogram across machines.
func serviceHist(machines []*kern.System, name string) *obs.Histogram {
	h := &obs.Histogram{Name: name}
	for _, s := range machines {
		if s.K.Obs == nil {
			continue
		}
		for _, sh := range s.K.Obs.ServiceHistograms() {
			if sh.Name == name {
				h.Merge(sh)
			}
		}
	}
	return h
}

func serviceP99(machines []*kern.System, name string) float64 {
	return float64(serviceHist(machines, name).Quantile(0.99)) / 1e3
}

// ---------------------------------------------------------------------
// chain-storm
// ---------------------------------------------------------------------

// stormRuns is how many storms one chain-storm iteration pools. One
// long storm's latency percentiles swing by a fifth between seeds, as
// the cache and queues settle differently; eight short storms at
// derived seeds, pooled, hold them within a few percent.
func stormRuns(tiny bool) int {
	if tiny {
		return 1
	}
	return 8
}

// stormHorizon is each storm's arrival horizon: past the trigger window
// (60-80 ms) and its recovery, so steady state still holds most
// arrivals.
const stormHorizon = machine.Duration(250 * 1e6)

func runChainStorm(seed uint64, tiny bool) *iteration {
	it := newIteration()
	front, repl, fetch := &obs.Histogram{}, &obs.Histogram{}, &obs.Histogram{}
	var tally machineTally
	var rt svc.ReplicaStats
	var cs svc.CacheStats
	var ov overload.Stats
	offered, good, deadline := 0, 0, uint64(0)
	runs := stormRuns(tiny)
	for i := 0; i < runs; i++ {
		spec := workload.DefaultStorm()
		spec.Horizon = stormHorizon
		spec.Seed = subSeed(seed, i)
		spec.FaultSeed = spec.Seed
		deadline = uint64(spec.Overload.Deadline)

		var res *workload.StormResult
		it.host.time("kern.drive_s", func() {
			res = workload.RunStorm(kern.MK40, machine.ArchDS3100, spec)
		})
		it.ops += float64(res.Completed)
		if res.Mismatches != 0 {
			it.fail("storm %d: %d reads contradicted acknowledged writes", i, res.Mismatches)
		}
		if res.Metastable {
			it.fail("storm %d: goodput collapsed for %v with controls on", i, res.CollapsedFor)
		}
		checkHistory(it, res.History, res.Check, res.SplitBrain)

		g := 0
		for _, b := range append(res.Curve, res.Tail) {
			offered += b.Offered
			g += b.Good
		}
		if g != res.Completed {
			it.fail("storm %d: goodput curve holds %d good ops, the run completed %d", i, g, res.Completed)
		}
		good += g
		front.Merge(serviceHist(res.Machines, "frontend"))
		repl.Merge(serviceHist(res.Machines, "kv.replicate"))
		fetch.Merge(serviceHist(res.Machines, "cache.fetch"))
		tally.add(it, res.Machines)
		it.sim["sim_ms"] += float64(res.Elapsed) / 1e6
		it.sim["core.steps"] += float64(res.Steps)
		it.sim["workload.sessions"] += float64(spec.Sessions)
		it.sim["workload.storm_recovery_ms"] += float64(res.RecoveryAfter) / 1e6 / float64(runs)
		for _, cfg := range res.Replicas {
			s := cfg.Stats
			rt.Gets += s.Gets
			rt.Puts += s.Puts
			rt.Replicated += s.Replicated
			rt.Elections += s.Elections
			rt.FencingRejections += s.FencingRejections
		}
		c := res.Cache.Stats
		cs.Hits += c.Hits
		cs.Misses += c.Misses
		cs.Evictions += c.Evictions
		cs.WriteThroughs += c.WriteThroughs
		rov := res.ReplicaOv()
		for _, s := range []*overload.Stats{&rov, res.FrontOv, res.Cache.Ov} {
			ov.Admitted += s.Admitted
			ov.Expired += s.Expired
			ov.Rejected += s.Rejected
			ov.BudgetDenied += s.BudgetDenied
			ov.BreakerFastFail += s.BreakerFastFail
		}
		it.host.time("workload.report_s", func() {
			var buf bytes.Buffer
			workload.WriteStormReport(&buf, kern.MK40, machine.ArchDS3100, res)
		})
	}
	if offered == 0 {
		it.fail("no arrivals offered")
		return it
	}
	it.sim["sim_p50_us"] = float64(front.Quantile(0.50)) / 1e3
	it.sim["sim_p99_us"] = float64(front.Quantile(0.99)) / 1e3
	it.sim["sim_samples"] = float64(front.Count)
	it.sim["sla_pct"] = 100 * histAtMost(front, deadline) / float64(offered)
	it.sim["fail_frac"] = float64(offered-good) / float64(offered)
	it.sim["overload.goodput_ratio"] = float64(good) / float64(offered)
	it.sim["workload.ops"] = float64(good)
	replicaCounters(it, rt)
	if n := cs.Hits + cs.Misses; n > 0 {
		it.sim["svc.cache_hit_ratio"] = float64(cs.Hits) / float64(n)
	}
	it.sim["svc.cache_evictions"] = float64(cs.Evictions)
	it.sim["svc.write_throughs"] = float64(cs.WriteThroughs)
	// The cache tier's workers issue the chain's KV ops; the frontends'
	// histogram is the requests through the cache tier.
	it.sim["svc.kvop_sim_p99_us"] = float64(fetch.Quantile(0.99)) / 1e3
	it.sim["svc.replicate_sim_p99_us"] = float64(repl.Quantile(0.99)) / 1e3
	it.sim["svc.cache_sim_p99_us"] = float64(front.Quantile(0.99)) / 1e3
	it.sim["overload.admitted"] = float64(ov.Admitted)
	it.sim["overload.expired"] = float64(ov.Expired)
	it.sim["overload.rejected"] = float64(ov.Rejected)
	it.sim["overload.budget_denied"] = float64(ov.BudgetDenied)
	it.sim["overload.breaker_fastfail"] = float64(ov.BreakerFastFail)
	it.sim["obs.ring_mb"] = ringMB(4, obs.DefaultCapacity)
	tally.finish(it)
	return it
}

// subSeed derives the i-th input seed of a pooled iteration.
func subSeed(seed uint64, i int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(i)
}

// histAtMost estimates how many samples of h are <= v, interpolating
// linearly inside the power-of-two bucket holding v.
func histAtMost(h *obs.Histogram, v uint64) float64 {
	n := 0.0
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo, hi := obs.BucketBounds(i)
		switch {
		case hi <= v+1:
			n += float64(c)
		case lo <= v:
			n += float64(c) * float64(v+1-lo) / float64(hi-lo)
		}
	}
	return n
}

// ---------------------------------------------------------------------
// mtload-64
// ---------------------------------------------------------------------

// mtloadSize is the machine count and sessions per tenant (4 tenants).
func mtloadSize(tiny bool) (machines, perTenant int) {
	if tiny {
		return 8, 20
	}
	return 64, 6400
}

func mtloadSpec(seed uint64, tiny bool) workload.MTLoadSpec {
	m, perTenant := mtloadSize(tiny)
	return workload.MTLoadSpec{Machines: m, Tenants: 4, SessionsPerTenant: perTenant, Ops: 2, Seed: seed}
}

func runMTLoad(seed uint64, tiny bool) *iteration {
	return runMTLoadSpec(mtloadSpec(seed, tiny))
}

func runMTLoadSpec(spec workload.MTLoadSpec) *iteration {
	it := newIteration()
	var res *workload.MTLoadResult
	it.host.time("kern.drive_s", func() {
		res = workload.RunMTLoad(kern.MK40, machine.ArchDS3100, spec)
	})
	hist := &obs.Histogram{}
	sessions, ops, attained := 0, uint64(0), uint64(0)
	for _, ts := range res.PerTenant {
		sessions += ts.Sessions
		ops += ts.Ops
		attained += ts.Attained
		hist.Merge(ts.Hist)
	}
	want := spec.Tenants * spec.SessionsPerTenant
	if sessions != want || ops != uint64(want*spec.Ops) {
		it.fail("%d sessions completed %d ops, want %d sessions x %d ops", sessions, ops, want, spec.Ops)
	}
	it.ops = float64(ops)
	it.sim["sim_p50_us"] = float64(hist.Quantile(0.50)) / 1e3
	it.sim["sim_p99_us"] = float64(hist.Quantile(0.99)) / 1e3
	it.sim["sim_samples"] = float64(hist.Count)
	it.sim["sim_ms"] = float64(res.Elapsed) / 1e6
	if ops > 0 {
		it.sim["sla_pct"] = 100 * float64(attained) / float64(ops)
	}
	it.sim["core.steps"] = float64(res.Steps)
	it.sim["workload.sessions"] = float64(sessions)
	it.sim["workload.ops"] = float64(ops)
	it.sim["obs.ring_mb"] = ringMB(len(res.Machines), 512)
	machineCounters(it, res.Machines)

	it.host.time("workload.report_s", func() {
		var buf bytes.Buffer
		workload.WriteMTLoadReport(&buf, res)
	})
	return it
}

// ---------------------------------------------------------------------
// counters every workload reports from its machines
// ---------------------------------------------------------------------

// machineTally sums the layer counters of every machine of an
// iteration; finish turns the sums into the ratio metrics.
type machineTally struct {
	fixed, stackBytes float64
	seg               [obs.NumSegs]float64
	segTotal          float64
}

func machineCounters(it *iteration, machines []*kern.System) {
	var t machineTally
	t.add(it, machines)
	t.finish(it)
}

func (t *machineTally) add(it *iteration, machines []*kern.System) {
	m := it.sim
	var spans []obs.Span
	for _, s := range machines {
		st := s.K.Stats
		m["core.handoffs"] += float64(st.Handoffs)
		m["core.recognitions"] += float64(st.Recognitions)
		m["core.continuation_calls"] += float64(st.ContinuationCalls)
		m["core.context_switches"] += float64(st.ContextSwitches)

		stacksHW, blockedHW := s.K.Stacks.MaxInUse(), s.K.BlockedHighWater
		m["machine.stacks_hw"] += float64(stacksHW)
		m["machine.blocked_hw"] += float64(blockedHW)
		sp := s.Flavor.StaticThreadSpace()
		t.fixed += float64(blockedHW * (sp.MIState + sp.MDState))
		t.stackBytes += float64(stacksHW * (machine.KernelStackSize + s.K.Stacks.VMMetadataBytes))

		nt := s.NetTotals()
		m["dev.retransmits"] += float64(nt.Retransmits)
		m["dev.stale_drops"] += float64(nt.StaleDropped)
		for _, l := range s.Links {
			m["dev.packets"] += float64(l.NIC.TxPackets)
			m["fault.severed"] += float64(l.NIC.Severed)
			m["fault.link_delayed"] += float64(l.NIC.LinkDelayed)
		}
		m["fault.drops"] += float64(s.FaultStats().Drops)
		m["kern.crashes"] += float64(s.CrashCount)
		m["kern.reboots"] += float64(s.Reboots)
		if s.K.Obs != nil {
			spans = append(spans, s.K.Obs.Spans()...)
		}
	}
	m["obs.spans"] += float64(len(spans))
	if len(spans) == 0 {
		return
	}
	var cp *obs.CritPath
	it.host.time("obs.critpath_s", func() { cp = obs.AnalyzeCritPath(spans) })
	for _, op := range cp.Ops {
		for i, d := range op.Seg {
			t.seg[i] += float64(d)
		}
		t.segTotal += float64(op.Total)
	}
}

func (t *machineTally) finish(it *iteration) {
	if bl := it.sim["machine.blocked_hw"]; bl > 0 {
		it.sim["machine.bytes_per_thread"] = (t.fixed + t.stackBytes) / bl
	}
	if t.segTotal == 0 {
		return
	}
	for i := obs.Seg(0); i < obs.NumSegs; i++ {
		it.sim["obs.seg_"+i.String()+"_share"] = t.seg[i] / t.segTotal
	}
}
