// machsim runs one of the paper's workloads on a chosen kernel flavor
// and machine, then prints the control-transfer statistics in the format
// of Tables 1 and 2 (single-machine workloads) or the cluster report
// (multi-machine workloads).
//
// Usage:
//
//	machsim [-workload compile|build|dos|netrpc|failover|kv|svcgraph|storm|mtload]
//	        [-flavor mk40|mk32|mach25] [-arch ds3100|toshiba]
//	        [-scale f] [-seed n] [-v]
//	        [-pairs n] [-clients n] [-parallel]
//	        [-machines n] [-tenants n] [-sessions n]
//	        [-faults seed:spec] [-crash M@T[:reboot+N]]
//	        [-fuzz seed:count] [-fuzzout dir] [-breakkv]
//	        [-overload off|on[:k=v,...]] [-breakoverload]
//	        [-check] [-trace out.json] [-profile] [-sample 1/N]
//
// Each workload reads a fixed set of flags (listed in the workloads
// table below); setting any other flag exits 2 naming the flag and the
// workload, so no flag is ever silently ignored.
//
// Workloads:
//
//   - compile, build, dos: the paper's single-machine workloads (Tables
//     1 and 2); -scale, -seed and -v apply.
//   - netrpc: two machines joined by a NIC pair running cross-machine
//     echo RPCs through the in-kernel netmsg threads. -pairs n boots n
//     client/server pairs (2n machines); -clients n runs n client
//     threads per client machine.
//   - failover: the 4-machine HA topology — client, primary, replica,
//     client — whose clients fail over to the replica when the primary
//     goes silent and fail back after its warm reboot.
//   - kv: the replicated sharded key/value service — two client machines
//     driving a primary/backup replica pair with epoch-numbered leases,
//     fencing tokens and heartbeat-driven leader election. -clients sets
//     the caller threads per client machine.
//   - svcgraph: the multi-tier service graph — frontend -> cache ->
//     replicated KV — reporting per-tier throughput and p50/p99 latency
//     from the service histograms.
//   - storm: the overload scenario — the svcgraph chain under open-loop
//     session load with a canonical trigger (demand burst + cache gray
//     failure + link delay) that tips the uncontrolled system into a
//     metastable retry storm. `-overload off` runs the negative arm — the
//     verdict line reads METASTABLE when goodput stays collapsed for five
//     trigger durations after the trigger cleared — and the default
//     (`-overload on`) must read RECOVERED (90% of baseline goodput within
//     two trigger durations). -faults overrides the trigger schedule,
//     -sessions the open-loop session count.
//   - mtload: the open-loop multi-tenant load generator at cluster
//     scale — -machines n client/server hosts (even, default 8) carrying
//     -tenants k traffic classes (default 4) whose sessions a
//     cluster-level balancer spreads across the machines; -sessions
//     overrides the per-tenant session count (default 100 per machine).
//     Each session sleeps through jittered think times as a blocked
//     continuation and charges latency from its intended arrival, so the
//     report's per-tenant p50/p99 and SLA-attainment include queueing
//     delay. The aggregate report ends with the cluster memory census:
//     stacks stay O(processors) per machine while blocked sessions scale
//     into the 10^5..10^6 range.
//
// -overload arms the end-to-end overload controls on kv and storm:
// absolute deadlines propagated in the message headers (every tier sheds
// dead work on dequeue), per-client retry budgets, CoDel-style admission
// control at the cache and KV tiers, and a circuit breaker in the
// clients. "on" uses the canonical policy; "on:deadline=8ms,budget=4"
// overrides fields (keys: deadline, target, interval, budget, refill,
// breaker, cooldown); a malformed spec exits 2 naming the offending rule.
// Shed operations are definite no-ops: the linearizability checker
// excludes them and -breakoverload runs the deliberately broken replica
// that applies an already-expired write before claiming it was shed —
// the phantom write the checker must flag. -breakoverload exits 2 unless
// the controls are on.
//
// Cluster flags: -parallel runs each horizon round's active machines on
// a pool of min(GOMAXPROCS, machines) worker goroutines (output stays
// byte-identical to the sequential driver); -crash
// injects whole-machine crashes (below); -faults adds wire/device
// faults.
//
// -faults installs a seeded deterministic fault plan, e.g.
// "42:drop=0.1,devfail=0.05,devslow=0.1:2ms"; wire faults switch the
// netmsg threads to the reliable seq/ack protocol. -check runs the
// kernel invariant sweep and the watchdog after every dispatch (and the
// cluster driver's cross-check); reports with a faults section end with
// a final invariant check. The same -faults argument always produces
// byte-identical output — the CI determinism smoke diffs two such runs.
//
// Beyond the probabilistic keys, the spec grammar schedules topology
// faults enforced at the NIC/link plane of every cluster workload:
//
//   - partition=A|B@T+D cuts every link between machine groups A and B
//     (dot-separated indices, e.g. 1|0.2.3) from offset T for duration D;
//   - link=S>D:drop@T+D severs the one-way S->D path (the reverse
//     direction keeps flowing — an asymmetric gray link);
//   - link=S>D:delay[:X]@T+D stretches S->D wire latency by X (2ms if
//     omitted);
//   - gray=M:F@T+D runs machine M at 1/F speed — a gray failure: the
//     machine is alive and answering, just pathologically slow;
//   - burst=F@T+D multiplies the open-loop offered load by F (demand-side:
//     only the storm's sessions have an offered load to multiply).
//
// The kv workload records every client operation and checks the merged
// history for per-key linearizability, plus a split-brain assertion over
// the replicas' durable ack logs; the report prints the verdict and a
// nemesis timeline, and a kv or storm run that violates either (or reads
// a value contradicting an acknowledged write) exits 1. -fuzz seed:count
// generates `count` random nemesis schedules from `seed`, runs the kv
// workload under each, and checks every history; on a violation it
// greedily shrinks the schedule and prints a minimal reproducing
// command, then exits 1. -fuzzout dir dumps each schedule's history.
// -breakkv disables the replicas' partition-heal safety machinery
// (rejoin state merge, deposed stall) — the deliberately broken build
// the checker must flag.
//
// -crash M@T[:reboot+N] is sugar for a crash=… rule in the fault spec:
// machine M halts at simulated offset T, dropping all in-flight state,
// and (with :reboot+N) warm-reboots N later under a new incarnation. The
// flag is repeatable and applies to the workloads that re-install their
// services on reboot: failover, kv, svcgraph and storm. M is a machine
// index or a role alias from the workload's cluster description
// (client, primary, replica/backup, frontend, cache). Crashing the kv
// primary for longer than the membership silence deadline (e.g. -crash
// primary@40ms:reboot+160ms) forces a leader election on the backup and
// a fencing rejection of the rebooted primary's stale lease epochs —
// and every client op still completes. A shorter outage rides through
// on the lease grant-back path with no election. The report gains a
// "recovery:" section with the crash/failover accounting.
//
// -trace records every kernel event and writes a Chrome trace_event JSON
// file (load it in Perfetto or chrome://tracing, or summarize it with
// cmd/traceview). -profile prints the per-continuation profile and the
// latency histograms after the run. Both are deterministic: the same
// flags and seed produce byte-identical traces and reports.
//
// The kv, svcgraph and storm workloads additionally run causal tracing:
// every client operation mints a deterministic trace context that rides
// the netmsg header across machines, and each tier records spans (queue,
// service, wire, retry, election) into its machine's recorder. The kv
// and svcgraph reports end with a critical-path attribution table —
// per-segment p50/p99 over the sampled operations plus the slowest ops
// decomposed so each op's segment sum equals its measured round-trip.
// -sample 1/N head-samples the traces (keep the 1-in-N hash class of
// trace ids; default 1/1 keeps all). Exported spans appear in the -trace
// file as "X" events with cross-machine flow arrows; summarize them with
// traceview -spans.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/stats"
	"repro/internal/workload"
)

// options is the parsed command line.
type options struct {
	workload, flavorName, archName string

	scale    float64
	seed     uint64
	verbose  bool
	faults   string
	check    bool
	trace    string
	profile  bool
	pairs    int
	clients  int
	parallel bool
	fuzz     string
	fuzzOut  string
	breakKV  bool
	sample   string
	machines int
	tenants  int
	sessions int
	overload string
	breakOv  bool
	crashes  []string

	// set holds the flags given on the command line.
	set map[string]bool

	// Resolved by resolve.
	def         *workloadDef
	flavor      kern.Flavor
	arch        machine.Arch
	faultSeed   uint64
	faultSpec   fault.Spec
	crashRules  []fault.Crash
	sampleEvery int
	policy      overload.Policy
	fuzzSeed    uint64
	fuzzCount   int
}

// newFlags declares machsim's flags on a fresh set bound to o.
func newFlags(o *options, handling flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet("machsim", handling)
	fs.StringVar(&o.workload, "workload", "compile", "compile, build, dos, netrpc, failover, kv, svcgraph, storm, or mtload")
	fs.StringVar(&o.flavorName, "flavor", "mk40", "mk40, mk32, or mach25")
	fs.StringVar(&o.archName, "arch", "toshiba", "ds3100 or toshiba")
	fs.Float64Var(&o.scale, "scale", 0.25, "fraction of the paper's duration to simulate")
	fs.Uint64Var(&o.seed, "seed", 12345, "workload random seed")
	fs.BoolVar(&o.verbose, "v", false, "also print per-component detail")
	fs.StringVar(&o.faults, "faults", "", "seed:spec fault plan, e.g. 42:drop=0.1,devfail=0.05")
	fs.BoolVar(&o.check, "check", false, "run the kernel invariant sweep and watchdog after every dispatch")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace_event JSON trace to this file")
	fs.BoolVar(&o.profile, "profile", false, "print the continuation profile and latency histograms")
	fs.IntVar(&o.pairs, "pairs", 1, "netrpc: client/server machine pairs (2*pairs machines)")
	fs.IntVar(&o.clients, "clients", 1, "client threads per client machine")
	fs.BoolVar(&o.parallel, "parallel", false, "run cluster machines on goroutines (byte-identical output)")
	fs.StringVar(&o.fuzz, "fuzz", "", "kv: fuzz nemesis schedules, seed:count (e.g. 7:25)")
	fs.StringVar(&o.fuzzOut, "fuzzout", "", "kv -fuzz: directory receiving one history dump per schedule")
	fs.BoolVar(&o.breakKV, "breakkv", false, "kv: run the deliberately broken replicas (checker must flag them)")
	fs.StringVar(&o.sample, "sample", "", "kv/svcgraph: head-sample 1/N of operation traces (default 1/1, keep all)")
	fs.IntVar(&o.machines, "machines", 8, "mtload: cluster size (even, >= 2)")
	fs.IntVar(&o.tenants, "tenants", 4, "mtload: tenant count")
	fs.IntVar(&o.sessions, "sessions", 0, "mtload: sessions per tenant (default 100 per machine); storm: open-loop sessions")
	fs.StringVar(&o.overload, "overload", "", "kv/storm: overload controls, off|on[:key=value,...]")
	fs.BoolVar(&o.breakOv, "breakoverload", false, "kv/storm: replicas apply already-expired writes before shedding them (checker must flag)")
	fs.Func("crash", "crash machine M (index or role alias) at offset T, e.g. primary@40ms:reboot+80ms (repeatable)",
		func(val string) error {
			o.crashes = append(o.crashes, val)
			return nil
		})
	return fs
}

// workloadDef declares one workload: the flags it reads beyond
// -workload, -flavor and -arch, its cluster shape, and how to run it.
type workloadDef struct {
	// flags lists the flags the workload reads, space-separated.
	flags string
	// cluster: partition, link and gray rules apply (every cluster
	// installs the fault plan's topology). openLoop: burst rules apply
	// too — the workload has open-loop demand to multiply.
	cluster, openLoop bool
	// roles are the machines of a workload that re-installs its services
	// on reboot: -crash applies, and they are its aliases.
	roles []string
	// overload is the -overload setting when the flag is absent.
	overload string
	// run runs the workload and returns the exit status.
	run func(o *options) int
}

const (
	singleFlags  = "scale seed v faults check trace profile"
	clusterFlags = "faults check trace profile parallel"
)

var workloads = map[string]*workloadDef{
	"compile":  {flags: singleFlags, run: runSingle},
	"build":    {flags: singleFlags, run: runSingle},
	"dos":      {flags: singleFlags, run: runSingle},
	"netrpc":   {flags: "pairs clients " + clusterFlags, cluster: true, run: runNet(workload.RunNetRPC)},
	"failover": {flags: "clients " + clusterFlags, cluster: true, roles: workload.FailoverRoles, run: runNet(workload.RunFailover)},
	"kv": {flags: "clients seed sample breakkv overload breakoverload " + clusterFlags,
		cluster: true, roles: workload.KVRoles, run: runKV},
	"svcgraph": {flags: "clients seed sample " + clusterFlags, cluster: true, roles: workload.ChainRoles, run: runSvcGraph},
	"storm": {flags: "seed sessions overload breakoverload " + clusterFlags,
		cluster: true, openLoop: true, roles: workload.ChainRoles, overload: "on", run: runStorm},
	"mtload": {flags: "machines tenants sessions seed check trace profile parallel", cluster: true, run: runMTLoad},
}

// fuzzDef is the kv fault-schedule fuzzing campaign -fuzz selects.
var fuzzDef = &workloadDef{flags: "fuzz fuzzout breakkv overload breakoverload parallel", run: runFuzz}

// reads reports whether the workload reads the named flag.
func (d *workloadDef) reads(name string) bool {
	switch name {
	case "workload", "flavor", "arch":
		return true
	case "crash":
		return d.roles != nil
	}
	return strings.Contains(" "+d.flags+" ", " "+name+" ")
}

// resolve validates the parsed command line against the chosen
// workload's declaration and parses every flag value, before anything
// boots. fs is the set o was parsed by.
func (o *options) resolve(fs *flag.FlagSet) error {
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	name := o.workload
	if o.set["fuzz"] {
		// The campaign fuzzes the kv workload.
		if o.set["workload"] && name != "kv" {
			return fmt.Errorf("-fuzz does not apply to -workload %s (it fuzzes kv)", name)
		}
		name, o.workload, o.def = "kv -fuzz", "kv", fuzzDef
	} else if o.def = workloads[name]; o.def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	unread := ""
	fs.VisitAll(func(f *flag.Flag) {
		if unread == "" && o.set[f.Name] && !o.def.reads(f.Name) {
			unread = f.Name
		}
	})
	if unread != "" {
		return fmt.Errorf("-%s does not apply to -workload %s", unread, name)
	}

	var ok bool
	if o.flavor, ok = workload.FlavorNames[o.flavorName]; !ok {
		return fmt.Errorf("unknown flavor %q", o.flavorName)
	}
	if o.arch, ok = workload.ArchNames[o.archName]; !ok {
		return fmt.Errorf("unknown arch %q", o.archName)
	}
	for _, n := range []struct {
		flag string
		v    int
	}{{"pairs", o.pairs}, {"clients", o.clients}, {"tenants", o.tenants}, {"sessions", o.sessions}} {
		if o.set[n.flag] && n.v < 1 {
			return fmt.Errorf("-%s must be >= 1, got %d", n.flag, n.v)
		}
	}
	if o.machines < 2 || o.machines%2 != 0 {
		return fmt.Errorf("-machines must be even and >= 2, got %d", o.machines)
	}

	if o.faults != "" {
		var err error
		if o.faultSeed, o.faultSpec, err = fault.ParseFlag(o.faults); err != nil {
			return err
		}
	}
	for _, val := range o.crashes {
		if at := strings.IndexByte(val, '@'); at > 0 {
			if idx, ok := workload.RoleIndex(o.def.roles, strings.TrimSpace(val[:at])); ok {
				val = fmt.Sprintf("%d%s", idx, val[at:])
			}
		}
		c, err := fault.ParseCrash(val)
		if err != nil {
			return err
		}
		o.crashRules = append(o.crashRules, c)
	}
	if err := o.checkFaultRules(name); err != nil {
		return err
	}

	if o.sample != "" {
		n, err := obs.ParseSample(o.sample)
		if err != nil {
			return err
		}
		o.sampleEvery = n
	}
	ov := o.overload
	if !o.set["overload"] {
		ov = o.def.overload
	}
	if ov != "" {
		p, err := overload.ParsePolicy(ov)
		if err != nil {
			return err
		}
		o.policy = p
	}
	if o.breakOv && !o.policy.Enabled {
		return fmt.Errorf("-breakoverload requires -overload on (nothing sheds without it)")
	}
	if o.set["fuzz"] {
		seedPart, countPart, ok := strings.Cut(o.fuzz, ":")
		if ok {
			_, err1 := fmt.Sscanf(seedPart, "%d", &o.fuzzSeed)
			_, err2 := fmt.Sscanf(countPart, "%d", &o.fuzzCount)
			ok = err1 == nil && err2 == nil && o.fuzzCount > 0
		}
		if !ok {
			return fmt.Errorf("-fuzz wants seed:count, got %q", o.fuzz)
		}
	}
	return nil
}

// checkFaultRules rejects the fault rules the workload would not
// enforce, and crashes of machines it does not have.
func (o *options) checkFaultRules(name string) error {
	fs := o.faultSpec
	for _, r := range []struct {
		kind string
		n    int
		ok   bool
	}{
		{"partition", len(fs.Partitions), o.def.cluster},
		{"link", len(fs.Links), o.def.cluster},
		{"gray", len(fs.Grays), o.def.cluster},
		{"burst", len(fs.Bursts), o.def.openLoop},
		{"crash", len(fs.Crashes), o.def.roles != nil},
	} {
		if r.n > 0 && !r.ok {
			return fmt.Errorf("-faults: %s rules have no effect on -workload %s", r.kind, name)
		}
	}
	for _, c := range slices.Concat(fs.Crashes, o.crashRules) {
		if c.Machine >= len(o.def.roles) {
			return fmt.Errorf("crash names machine %d; -workload %s has machines 0..%d", c.Machine, name, len(o.def.roles)-1)
		}
	}
	return nil
}

// clusterOptions assembles the shared cluster settings from the flags.
func (o *options) clusterOptions() workload.ClusterOptions {
	spec := o.faultSpec
	spec.Crashes = slices.Concat(spec.Crashes, o.crashRules)
	return workload.ClusterOptions{
		FaultSeed: o.faultSeed, FaultSpec: spec,
		Parallel: o.parallel, DebugChecks: o.check, SampleEvery: o.sampleEvery,
	}
}

// reportOptions selects the report's faults and check sections.
func (o *options) reportOptions() workload.NetRPCReportOptions {
	return workload.NetRPCReportOptions{Faults: o.faults != "" || len(o.crashRules) > 0, Check: o.check}
}

func main() {
	var o options
	fs := newFlags(&o, flag.ExitOnError)
	fs.Parse(os.Args[1:])
	if err := o.resolve(fs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(o.def.run(&o))
}

// runSingle runs one of the paper's single-machine workloads.
func runSingle(o *options) int {
	var spec workload.Spec
	switch o.workload {
	case "compile":
		spec = workload.CompileTest()
	case "build":
		spec = workload.KernelBuild()
	default:
		spec = workload.DOSEmulation()
	}
	flavor, arch := o.flavor, o.arch
	wspec := spec.Scale(o.scale)
	sys := workload.NewSystem(flavor, arch, wspec)
	sys.K.DebugChecks = o.check
	sys.InjectFaults(o.faultSeed, o.faultSpec)
	if o.trace != "" || o.profile {
		sys.EnableObservation(0)
	}
	inst := workload.Install(sys, wspec, o.seed)
	inst.Run()
	st := sys.K.Stats
	total := st.TotalBlocks()

	fmt.Printf("%s on %v/%v — %.0f simulated seconds (scale %.2f), %d blocking operations\n\n",
		spec.Name, flavor, arch, sys.K.Clock.Now().Seconds(), o.scale, total)

	fmt.Printf("%-20s %12s %8s\n", "operation", "blocks", "%")
	for _, r := range stats.DiscardReasons {
		n := st.BlocksWithDiscard[r]
		fmt.Printf("%-20s %12d %7.1f%%\n", r, n, stats.Percent(n, total))
	}
	fmt.Printf("%-20s %12d %7.1f%%\n", "total stack discards",
		st.TotalDiscards(), stats.Percent(st.TotalDiscards(), total))
	fmt.Printf("%-20s %12d %7.1f%%\n", "no stack discards",
		st.TotalNoDiscards(), stats.Percent(st.TotalNoDiscards(), total))

	fmt.Printf("\n%-20s %12d %7.1f%%\n", "stack handoff", st.Handoffs,
		stats.Percent(st.Handoffs, total))
	fmt.Printf("%-20s %12d %7.1f%%\n", "recognition", st.Recognitions,
		stats.Percent(st.Recognitions, total))

	fmt.Printf("\nkernel stacks: %.3f average in use, %d worst case, %d threads live\n",
		sys.K.Stacks.AverageInUse(), sys.K.Stacks.MaxInUse(), sys.K.LiveThreads())
	mc := sys.MemoryCensus()
	fmt.Printf("memory census: %d stacks high-water vs %d blocked threads high-water\n",
		mc.StackHighWater, mc.BlockedHighWater)
	fmt.Printf("per-thread kernel memory now: %.0f bytes (static %v: %d bytes)\n",
		sys.MeasuredPerThreadBytes(), flavor, flavor.StaticThreadSpace().Total())

	workload.WriteFaultReport(os.Stdout, sys, o.reportOptions())

	if o.verbose {
		fmt.Printf("\ndetail:\n")
		fmt.Printf("  context switches      %12d\n", st.ContextSwitches)
		fmt.Printf("  continuation calls    %12d\n", st.ContinuationCalls)
		fmt.Printf("  stack attaches        %12d\n", st.StackAttaches)
		fmt.Printf("  run-queue traffic     %12d enq / %d deq\n", sys.Sched.Enqueues, sys.Sched.Dequeues)
		fmt.Printf("  run-queue high water  %12d\n", sys.Sched.HighWater)
		fmt.Printf("  vm: disk faults       %12d\n", sys.VM.DiskFaults)
		fmt.Printf("  vm: evictions         %12d\n", sys.VM.Evictions)
		fmt.Printf("  ipc: fast RPCs        %12d\n", sys.IPC.FastRPCs)
		fmt.Printf("  ipc: queued sends     %12d\n", sys.IPC.QueuedSends)
		fmt.Printf("  exc: fast raises      %12d\n", sys.Exc.FastRaises)
		var handled uint64
		for _, s := range inst.Servers {
			handled += s.Handled
		}
		fmt.Printf("  server requests       %12d\n", handled)
		if inst.ExcServer != nil {
			fmt.Printf("  exceptions handled    %12d\n", inst.ExcServer.Handled)
		}
		fmt.Printf("  user time             %12.0f ms\n", float64(sys.K.UserTime)/1e6)
	}

	if rec := sys.K.Obs; rec != nil {
		rec.Census = sys.MemoryCensus()
	}
	emitObservations(o, sys)
	return 0
}

// emitObservations writes the Chrome trace and/or prints the profile
// report for whichever of the machines run a recorder.
func emitObservations(o *options, machines ...*kern.System) {
	var live []*obs.Recorder
	for _, sys := range machines {
		if sys.K.Obs != nil {
			live = append(live, sys.K.Obs)
		}
	}
	if len(live) == 0 {
		return
	}
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obs.WriteChrome(f, live...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace: wrote %s (%d machine(s))\n", o.trace, len(live))
	}
	if o.profile {
		for i, r := range live {
			if len(live) > 1 {
				fmt.Printf("\nmachine %d profile:\n", i)
			} else {
				fmt.Printf("\nprofile:\n")
			}
			r.WriteReport(os.Stdout)
		}
	}
}

// checkerStatus turns a run's safety verdict into machsim's exit status:
// 1, with the violation on stderr, when the run broke a checked
// property.
func checkerStatus(violation string) int {
	if violation == "" {
		return 0
	}
	fmt.Fprintf(os.Stderr, "machsim: checker failed: %s\n", violation)
	return 1
}

// netRPCSpec is the netrpc and failover spec the flags describe.
func netRPCSpec(o *options) workload.NetRPCSpec {
	spec := workload.DefaultNetRPC()
	spec.ClusterOptions = o.clusterOptions()
	spec.Pairs = o.pairs
	spec.Clients = o.clients
	spec.Observe = o.trace != "" || o.profile
	return spec
}

// runNet drives the netrpc pairs (workload.RunNetRPC) or the HA
// topology (workload.RunFailover) and prints per-machine block tables
// plus the device subsystem counters.
func runNet(run func(kern.Flavor, machine.Arch, workload.NetRPCSpec) *workload.NetRPCResult) func(*options) int {
	return func(o *options) int {
		res := run(o.flavor, o.arch, netRPCSpec(o))
		workload.WriteNetRPCReport(os.Stdout, o.flavor, o.arch, res, o.reportOptions())
		emitObservations(o, res.Machines...)
		return 0
	}
}

// runKV drives the replicated sharded KV workload and prints its
// service-level report plus the per-machine block tables.
func runKV(o *options) int {
	spec := workload.DefaultKV()
	spec.ClusterOptions = o.clusterOptions()
	if o.set["clients"] {
		spec.Clients = o.clients
	}
	if o.set["seed"] {
		spec.Seed = o.seed
	}
	spec.Break = o.breakKV
	spec.Overload = o.policy
	spec.BreakOverload = o.breakOv
	res := workload.RunKV(o.flavor, o.arch, spec)
	workload.WriteKVReport(os.Stdout, o.flavor, o.arch, res, o.reportOptions())
	emitObservations(o, res.Machines...)
	return checkerStatus(res.Violation())
}

// runSvcGraph drives the multi-tier service-graph workload.
func runSvcGraph(o *options) int {
	spec := workload.DefaultSvcGraph()
	spec.ClusterOptions = o.clusterOptions()
	if o.set["clients"] {
		spec.Frontends = o.clients
	}
	if o.set["seed"] {
		spec.Seed = o.seed
	}
	res := workload.RunSvcGraph(o.flavor, o.arch, spec)
	workload.WriteSvcGraphReport(os.Stdout, o.flavor, o.arch, res, o.reportOptions())
	emitObservations(o, res.Machines...)
	return 0
}

// runStorm drives the overload storm: the svcgraph chain under open-loop
// session load, with the canonical metastable trigger unless -faults
// overrides it, and the -overload policy deciding whether the cluster
// survives it.
func runStorm(o *options) int {
	spec := workload.DefaultStorm()
	if o.faults != "" {
		spec.FaultSeed, spec.FaultSpec = o.faultSeed, o.faultSpec
	}
	spec.FaultSpec.Crashes = append(spec.FaultSpec.Crashes, o.crashRules...)
	spec.Parallel = o.parallel
	spec.DebugChecks = o.check
	spec.Overload = o.policy
	spec.BreakOverload = o.breakOv
	if o.set["seed"] {
		spec.Seed = o.seed
	}
	if o.set["sessions"] {
		spec.Sessions = o.sessions
	}
	res := workload.RunStorm(o.flavor, o.arch, spec)
	workload.WriteStormReport(os.Stdout, o.flavor, o.arch, res)
	emitObservations(o, res.Machines...)
	return checkerStatus(res.Violation())
}

// runMTLoad drives the open-loop multi-tenant load generator and prints
// its aggregate report.
func runMTLoad(o *options) int {
	spec := workload.DefaultMTLoad()
	spec.Machines = o.machines
	spec.Tenants = o.tenants
	if o.set["sessions"] {
		spec.SessionsPerTenant = o.sessions
	}
	if o.set["seed"] {
		spec.Seed = o.seed
	}
	spec.Parallel = o.parallel
	spec.DebugChecks = o.check
	res := workload.RunMTLoad(o.flavor, o.arch, spec)
	workload.WriteMTLoadReport(os.Stdout, res)
	emitObservations(o, res.Machines...)
	return 0
}

// runFuzz runs the kv nemesis fuzzing campaign named by -fuzz seed:count
// and exits 1 when any schedule's history violates.
func runFuzz(o *options) int {
	res, err := workload.FuzzKV(workload.FuzzKVOptions{
		Flavor: o.flavor, Arch: o.arch,
		Seed: o.fuzzSeed, Count: o.fuzzCount,
		Parallel: o.parallel, Break: o.breakKV,
		Overload: o.policy, BreakOverload: o.breakOv,
		OutDir: o.fuzzOut, Out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("fuzz: %d schedules checked, %d violations\n", res.Ran, res.Violations)
	if res.Violations > 0 {
		return 1
	}
	return 0
}
