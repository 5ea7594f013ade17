package main

import "fmt"

// metricDef names one reported metric and its unit. Host time and
// simulated time never share a unit: "s"/"ns" are host, "sim_*" are the
// simulator's clock.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run (--trace 0). Every one applies to every workload. Host
// time is process CPU time (see cpuSeconds); wall-clock time is the
// per-layer wall_s.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"host_ops_per_s", "ops/s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"sim_ms", "sim_ms"},
	{"sim_p50_us", "sim_us"},
	{"sim_p99_us", "sim_us"},
}

// t3Cells are the twelve Table-3 cells, in experiments.Arches x
// experiments.Flavors order.
var t3Cells = func() []string {
	var out []string
	for _, arch := range []string{"ds3100", "toshiba"} {
		for _, flavor := range []string{"mk40", "mk32", "mach25"} {
			for _, kind := range []string{"rpc", "exc"} {
				out = append(out, fmt.Sprintf("experiments.t3_%s_%s_%s_us", arch, flavor, kind))
			}
		}
	}
	return out
}()

// hostShareModules are the repro/internal packages a CPU-profile sample
// can be attributed to; "runtime" takes the samples with no repro frame
// (GC, scheduler, memclr of fresh allocations).
var hostShareModules = []string{
	"core", "sched", "ipc", "exc", "vm", "machine", "dev", "kern", "obs",
	"svc", "overload", "fault", "check", "workload", "experiments", "runtime",
}

// perLayer are the metrics of the traced run (--trace 1). Workload
// outcome metrics that exist only on some workloads (sla_pct,
// fail_frac, paper_err_pct) live here, reading 0 where they do not
// apply, because an end-to-end metric must be nonzero on every
// workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sla_pct", "%"},
		{"fail_frac", "ratio"},
		{"paper_err_pct", "%"},
		{"sim_samples", "count"},
		{"heldout.paper_err_pct", "%"},
		{"heldout.sim_ms", "sim_ms"},
		{"heldout.sim_p50_us", "sim_us"},
		{"heldout.sim_p99_us", "sim_us"},
		{"host.nproc", "count"},
		{"host.gomaxprocs", "count"},
		{"wall_s", "s"},
		{"trace.wall_s", "s"},
		{"trace.overhead_ratio", "ratio"},

		{"core.steps", "count"},
		{"core.ns_per_step", "ns"},
		{"core.unwind_share", "ratio"},
		{"core.handoffs", "count"},
		{"core.recognitions", "count"},
		{"core.continuation_calls", "count"},
		{"core.context_switches", "count"},
		{"core.dispatch_ns", "ns"},
		{"core.dispatch_allocs", "count"},

		{"ipc.null_rpc_ns", "ns"},
		{"ipc.null_rpc_allocs", "count"},

		{"exc.rtt_ns", "ns"},
		{"exc.rtt_allocs", "count"},

		{"machine.stacks_hw", "count"},
		{"machine.blocked_hw", "count"},
		{"machine.bytes_per_thread", "B"},

		{"dev.netrpc_ns", "ns"},
		{"dev.netrpc_allocs", "count"},
		{"dev.packets", "count"},
		{"dev.retransmits", "count"},
		{"dev.stale_drops", "count"},

		{"kern.boot_s", "s"},
		{"kern.drive_s", "s"},
		{"kern.round_ns", "ns"},
		{"kern.par_speedup", "ratio"},
		{"kern.crashes", "count"},
		{"kern.reboots", "count"},

		{"obs.enable_s", "s"},
		{"obs.ring_mb", "MB"},
		{"obs.spans", "count"},
		{"obs.critpath_s", "s"},
		{"obs.seg_queue_share", "ratio"},
		{"obs.seg_service_share", "ratio"},
		{"obs.seg_wire_share", "ratio"},
		{"obs.seg_retry_share", "ratio"},
		{"obs.seg_election_share", "ratio"},

		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.mallocs_per_op", "count"},

		{"svc.kv_op_ns", "ns"},
		{"svc.chain_op_ns", "ns"},
		{"svc.gets", "count"},
		{"svc.puts", "count"},
		{"svc.replicated", "count"},
		{"svc.elections", "count"},
		{"svc.fencing_rejections", "count"},
		{"svc.redirects", "count"},
		{"svc.failovers", "count"},
		{"svc.salvaged", "count"},
		{"svc.cache_hit_ratio", "ratio"},
		{"svc.cache_evictions", "count"},
		{"svc.write_throughs", "count"},
		{"svc.kvop_sim_p99_us", "sim_us"},
		{"svc.replicate_sim_p99_us", "sim_us"},
		{"svc.cache_sim_p99_us", "sim_us"},

		{"overload.admitted", "count"},
		{"overload.expired", "count"},
		{"overload.rejected", "count"},
		{"overload.budget_denied", "count"},
		{"overload.breaker_fastfail", "count"},
		{"overload.goodput_ratio", "ratio"},

		{"fault.severed", "count"},
		{"fault.link_delayed", "count"},
		{"fault.drops", "count"},

		{"check.linearizable_s", "s"},
		{"check.ops", "count"},
		{"check.keys", "count"},
		{"check.skipped_keys", "count"},

		{"workload.session_ns", "ns"},
		{"workload.sessions", "count"},
		{"workload.ops", "count"},
		{"workload.report_s", "s"},
		{"workload.storm_recovery_ms", "sim_ms"},
	}
	for _, c := range t3Cells {
		defs = append(defs, metricDef{c, "sim_us"})
	}
	for _, m := range hostShareModules {
		defs = append(defs, metricDef{m + ".host_share", "ratio"})
	}
	return defs
}()
