package main

import (
	"repro/internal/dev"
	"repro/internal/experiments"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/workload"
)

// rung times one layer's public entry point over ops operations, with
// the layer's setup done by the caller beforehand or amortised over ops,
// and returns host CPU ns and heap allocations per operation.
func rung(ops int, f func()) (nsPerOp, allocsPerOp float64) {
	settle()
	before := readMem()
	t := cpuSeconds()
	f()
	el := cpuSeconds() - t
	after := readMem()
	return 1e9 * el / float64(ops),
		float64(after.allocObjects-before.allocObjects) / float64(ops)
}

// ladder measures one rung per layer, bottom up, each in isolation: the
// per-operation host cost the end-to-end workloads are built from.
func ladder(tiny bool) map[string]float64 {
	size := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	m := map[string]float64{}
	fastRPC := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true}

	// core: one warmed dispatcher step of an MK40 null-RPC ping-pong.
	sys := kern.New(fastRPC)
	experiments.SetupNullRPC(sys, 1<<30)
	for i := 0; i < 2000; i++ {
		sys.K.Step()
	}
	steps := size(500_000, 10_000)
	m["core.dispatch_ns"], m["core.dispatch_allocs"] = rung(steps, func() {
		for i := 0; i < steps; i++ {
			sys.K.Step()
		}
	})

	// ipc: one local null RPC round trip.
	rpcs := size(200_000, 1_000)
	sys = kern.New(fastRPC)
	experiments.SetupNullRPC(sys, rpcs)
	m["ipc.null_rpc_ns"], m["ipc.null_rpc_allocs"] = rung(rpcs, func() { sys.Run(0) })

	// exc: one exception round trip to a user-level handler; the boot
	// is amortised over the loop.
	excs := size(100_000, 1_000)
	m["exc.rtt_ns"], m["exc.rtt_allocs"] = rung(excs, func() {
		experiments.ExceptionRTT(kern.MK40, machine.ArchDS3100, excs)
	})

	// dev: one cross-machine netmsg RPC between two machines, amortised.
	net := workload.DefaultNetRPC()
	net.RPCs = size(20_000, 100)
	m["dev.netrpc_ns"], m["dev.netrpc_allocs"] = rung(net.RPCs, func() {
		workload.RunNetRPC(kern.MK40, machine.ArchDS3100, net)
	})

	// kern: one horizon round of a 64-machine cluster with one machine
	// active, the rest idle.
	systems := make([]*kern.System, 64)
	for i := range systems {
		systems[i] = kern.New(fastRPC)
	}
	for i := 0; i+1 < len(systems); i += 2 {
		dev.Connect(systems[i].Net.NIC, systems[i+1].Net.NIC, machine.Duration(100_000))
	}
	cluster := kern.NewCluster(systems...)
	cluster.Drive(false)
	s0 := systems[0]
	var tick func()
	tick = func() { s0.K.Clock.After(machine.Duration(20_000), "tick", tick) }
	tick()
	cluster.SetDeferredForTest(true)
	rounds := size(200_000, 1_000)
	m["kern.round_ns"], _ = rung(rounds, func() {
		for i := 0; i < rounds; i++ {
			cluster.RoundForTest()
		}
	})
	cluster.SetDeferredForTest(false)

	// svc: one replicated KV op with no faults, and one op through the
	// frontend -> cache -> KV chain, each amortised over a run.
	kv := workload.DefaultKV()
	kv.Ops = size(1_000, 60)
	kv.Keyspan = uint64(max(32, kv.Ops/16))
	m["svc.kv_op_ns"], _ = rung(2*kv.Clients*kv.Ops, func() {
		workload.RunKV(kern.MK40, machine.ArchDS3100, kv)
	})
	chain := workload.DefaultSvcGraph()
	chain.Ops = size(1_000, 80)
	chain.Keyspan = uint64(max(12, chain.Ops/16))
	m["svc.chain_op_ns"], _ = rung(chain.Frontends*chain.Ops, func() {
		workload.RunSvcGraph(kern.MK40, machine.ArchDS3100, chain)
	})

	// workload: one open-loop mtload session on an 8-machine cluster.
	mt := workload.MTLoadSpec{Machines: 8, Tenants: 4, SessionsPerTenant: size(1_000, 20), Ops: 2, Seed: 1}
	m["workload.session_ns"], _ = rung(mt.Tenants*mt.SessionsPerTenant, func() {
		workload.RunMTLoad(kern.MK40, machine.ArchDS3100, mt)
	})
	return m
}
