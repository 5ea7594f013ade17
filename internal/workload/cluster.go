package workload

import (
	"fmt"
	"strings"

	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
)

// ClusterOptions are the run settings every cluster workload shares;
// each cluster spec embeds them.
type ClusterOptions struct {
	// FaultSeed/FaultSpec are the fault plan. Machine i draws its fault
	// streams from FaultSeed+i; crash and topology rules name machines
	// by their index in the cluster's roles.
	FaultSeed uint64
	FaultSpec fault.Spec
	// Parallel runs each horizon round's active machines on a pool of
	// min(GOMAXPROCS, machines) worker goroutines; results are
	// byte-identical to the sequential rounds.
	Parallel bool
	// DebugChecks arms the kernel invariant sweep and the watchdog on
	// every machine, and the cluster driver's naive-sweep cross-check.
	DebugChecks bool
	// SampleEvery head-samples causal traces: keep the 1-in-N hash class
	// of operation trace ids. 0 or 1 keeps every trace.
	SampleEvery int
	// Wire is the one-way NIC latency (dev.DefaultWireLatency if 0).
	Wire machine.Duration
}

// ClusterSpec declares a cluster: its machines by role, the links
// between them, how the links behave, and what each machine records.
type ClusterSpec struct {
	ClusterOptions
	// Config boots every machine (flavor, arch, disk latency).
	Config kern.Config
	// Roles names each machine's part; len(Roles) is the machine count.
	// The roles label the report's machine sections and are the aliases
	// -crash accepts.
	Roles []string
	// Links joins machine pairs point to point. Each end takes the
	// machine's next free link slot, so machine i's Links[k] is its k-th
	// appearance in this list.
	Links [][2]int
	// Reliable runs the seq/ack netmsg protocol on every link; DeadAfter
	// overrides the links' membership silence deadline when nonzero.
	Reliable  bool
	DeadAfter machine.Duration
	// Observe installs an event recorder with Ring events retained
	// (obs.DefaultCapacity if 0) on every machine.
	Observe bool
	Ring    int
}

// Cluster is a booted cluster description, and after drive the
// outcome every cluster run shares. Workload results embed it.
type Cluster struct {
	Machines []*kern.System
	Roles    []string
	// Topo is the scheduled topology-fault plan (nil when the spec has
	// no partition/link/gray/burst rules).
	Topo *fault.Topology

	Elapsed  machine.Duration
	Steps    uint64
	Recovery RecoveryStats

	opts ClusterOptions
}

// Boot brings up the machines of spec, wires its links and installs the
// fault plan, reliability, checks and observation on every machine. The
// workload then installs its own services on Machines and calls drive.
func Boot(spec ClusterSpec) Cluster {
	c := Cluster{
		Machines: make([]*kern.System, len(spec.Roles)),
		Roles:    spec.Roles,
		Topo:     fault.NewTopology(spec.FaultSpec),
		opts:     spec.ClusterOptions,
	}
	for i := range c.Machines {
		c.Machines[i] = kern.New(spec.Config)
	}
	used := make([]int, len(c.Machines))
	slot := func(i int) *dev.Netmsg {
		s := c.Machines[i]
		if used[i] == len(s.Links) {
			s.AddLink()
		}
		used[i]++
		return s.Links[used[i]-1]
	}
	for _, l := range spec.Links {
		dev.Connect(slot(l[0]).NIC, slot(l[1]).NIC, spec.Wire)
	}
	for i, s := range c.Machines {
		s.InjectFaults(spec.FaultSeed+uint64(i), spec.FaultSpec)
		s.InstallTopology(i, c.Topo)
		if spec.Reliable {
			for _, n := range s.Links {
				n.EnableReliable()
				if spec.DeadAfter != 0 {
					n.DeadAfter = spec.DeadAfter
				}
			}
		}
		if spec.DebugChecks {
			s.K.DebugChecks = true
			s.EnableWatchdog()
		}
		if spec.Observe {
			// The host index salts span ids so they never collide
			// across machines.
			r := s.EnableObservation(spec.Ring)
			r.SetHost(i)
			r.SetSpanSampling(spec.SampleEvery)
		}
	}
	return c
}

// drive schedules the fault plan's machine crashes, runs the cluster to
// quiescence, and records the steps, elapsed time, machine-side
// recovery counters and each recorder's memory census.
func (c *Cluster) drive() {
	for _, cr := range c.opts.FaultSpec.Crashes {
		if cr.Machine >= 0 && cr.Machine < len(c.Machines) {
			c.Machines[cr.Machine].ScheduleCrash(cr.At, cr.RebootAfter)
		}
	}
	kc := kern.NewCluster(c.Machines...)
	kc.CrossCheck = c.opts.DebugChecks
	start := c.Machines[0].K.Clock.Now()
	c.Steps = kc.Drive(c.opts.Parallel)
	c.Elapsed = machine.Duration(c.Machines[0].K.Clock.Now() - start)
	c.Recovery.fill(c.Machines)
	for _, sys := range c.Machines {
		if r := sys.K.Obs; r != nil {
			r.Census = sys.MemoryCensus()
		}
	}
}

// census sums every machine's memory census; maxStacks is the largest
// single machine's stack high-water.
func (c *Cluster) census() (sum obs.Census, maxStacks int) {
	for _, sys := range c.Machines {
		mc := sys.MemoryCensus()
		sum.StackHighWater += mc.StackHighWater
		sum.BlockedHighWater += mc.BlockedHighWater
		sum.LiveThreads += mc.LiveThreads
		maxStacks = max(maxStacks, mc.StackHighWater)
	}
	return sum, maxStacks
}

// label names machine i in a report: "machine 1 (kv primary)".
func (c *Cluster) label(i int) string {
	return fmt.Sprintf("machine %d (%s)", i, c.Roles[i])
}

// RoleIndex resolves a -crash alias against a cluster's roles: the first
// machine whose role ends in the alias, with "backup" and "replica"
// naming the same role.
func RoleIndex(roles []string, alias string) (int, bool) {
	for i, role := range roles {
		last := role[strings.LastIndexByte(role, ' ')+1:]
		if last == alias || last == "backup" && alias == "replica" || last == "replica" && alias == "backup" {
			return i, true
		}
	}
	return 0, false
}

// RecoveryStats is the crash/failover accounting of one run, summed over
// all machines and clients.
type RecoveryStats struct {
	Crashes        uint64 // whole-machine crash events fired
	Reboots        uint64 // warm reboots completed
	DeathsDetected uint64 // times a link declared its peer dead
	Recoveries     uint64 // times a declared-dead peer was heard again
	StaleDropped   uint64 // packets discarded by the incarnation check
	Heartbeats     uint64 // explicit incarnation announcements sent
	Failovers      uint64 // client switches primary -> replica
	Failbacks      uint64 // client switches replica -> primary
	Salvaged       uint64 // RPCs that needed more than one attempt
	Failed         uint64 // RPCs abandoned after haMaxAttempts
}

// fill sums the machine-side counters (the client-side ones are added by
// each workload from its clients).
func (r *RecoveryStats) fill(machines []*kern.System) {
	for _, s := range machines {
		t := s.NetTotals()
		r.Crashes += s.CrashCount
		r.Reboots += s.Reboots
		r.DeathsDetected += t.DeathsDetected
		r.Recoveries += t.Recoveries
		r.StaleDropped += t.StaleDropped
		r.Heartbeats += t.HeartbeatsTx
	}
}
