// NetRPC is the cross-machine workload: two simulated machines joined by
// a NIC pair, a client on machine A issuing RPCs to an echo server on
// machine B through the in-kernel netmsg forwarding threads, and a
// user-level disk reader on each machine keeping the paging disk's
// request queue busy with device_read calls. Every continuation mechanism
// the device subsystem adds shows up here: device-I/O blocks that discard
// stacks, interrupts taken on the current stack, io_done handoffs and
// recognitions, and netmsg deliveries that hand off straight into a
// waiting receiver's mach_msg_continue.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
)

// NetRPCSpec sizes the cross-machine workload and its HA variant
// (RunFailover).
type NetRPCSpec struct {
	ClusterOptions
	// RPCs is how many echo round trips each client completes.
	RPCs int
	// MsgBytes is the request/reply payload size.
	MsgBytes int
	// DiskReads is how many device_read calls each machine's disk reader
	// issues (0 disables the readers); DiskReadBytes the transfer size.
	DiskReads     int
	DiskReadBytes int
	// DiskLatency overrides the paging disk service time when nonzero.
	DiskLatency machine.Duration

	// Pairs is the number of client/server machine pairs in the cluster
	// (default 1): the cluster simulates 2*Pairs machines, pair i on
	// machines 2i (client) and 2i+1 (server).
	Pairs int

	// Clients is the number of client threads per client machine (default
	// 1), each completing RPCs round trips. More clients keep more RPCs in
	// flight per wire-latency window, raising per-machine work per
	// horizon round.
	Clients int

	// RPCTimeout is the per-attempt receive timeout of a failover client
	// (DefaultRPCTimeout if zero).
	RPCTimeout machine.Duration

	// Observe installs an obs.Recorder on each machine before any thread
	// starts, so the whole run is traced and profiled. The recorders are
	// reachable afterwards as Client.K.Obs and Server.K.Obs.
	Observe bool
}

// DefaultNetRPC returns the standard two-machine echo workload.
func DefaultNetRPC() NetRPCSpec {
	return NetRPCSpec{
		RPCs:          50,
		MsgBytes:      256,
		DiskReads:     30,
		DiskReadBytes: 4096,
		// A fast disk keeps the readers and the RPC stream interleaved on
		// the same timescale.
		DiskLatency: machine.Duration(2 * 1000 * 1000), // 2 ms
	}
}

// LossyNetRPC is the robustness acceptance workload: the standard echo
// run under 10% packet loss plus occasional device failures and latency
// spikes, with the invariant checker armed throughout. Every RPC must
// still complete — the reliability protocol and the device retry path
// absorb the faults.
func LossyNetRPC() NetRPCSpec {
	s := DefaultNetRPC()
	s.FaultSeed = 1991 // the paper's year; any seed works
	s.FaultSpec = fault.Spec{
		DropProb:        0.10,
		DeviceFailProb:  0.05,
		DeviceSlowProb:  0.05,
		DeviceSlowExtra: machine.Duration(1 * 1000 * 1000), // 1 ms
	}
	s.DebugChecks = true
	return s
}

// NetRPCResult reports one cross-machine run.
type NetRPCResult struct {
	Cluster
	// Client and Server are machines 0 and 1: pair 0, or the HA
	// topology's first client and its primary.
	Client *kern.System
	Server *kern.System

	// Completed is the echo round trips finished across all clients;
	// DiskReadsDone the device_read calls completed on machines 0 and 1.
	Completed     int
	DiskReadsDone [2]int

	// ha marks the HA topology, whose report always carries the
	// recovery section.
	ha bool
}

// netEchoServer answers echo RPCs arriving through the netmsg thread. Its
// syscall actions are built once; a closure per action would allocate on
// every step of the cluster benchmarks.
type netEchoServer struct {
	sys     *kern.System
	port    *ipc.Port
	pending *ipc.Message
	handled int

	recvAct  core.Action
	replyAct core.Action
}

func (s *netEchoServer) Next(e *core.Env, t *core.Thread) core.Action {
	if s.recvAct.Invoke == nil {
		s.recvAct = core.Syscall("mach_msg(receive)", func(e *core.Env) {
			s.sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port})
		})
		s.replyAct = core.Syscall("mach_msg(reply+receive)", func(e *core.Env) {
			req := s.pending
			s.pending = nil
			op, size, body, to := req.OpID, req.Size, req.Body, req.Reply
			s.sys.IPC.FreeMessage(req)
			// to is a netmsg proxy: this send becomes a packet home.
			reply := s.sys.IPC.NewMessage(op|0x8000, size, body, nil)
			s.sys.IPC.MachMsg(e, ipc.MsgOptions{
				Send: reply, SendTo: to, ReceiveFrom: s.port,
			})
		})
	}
	if m := s.sys.IPC.Received(t); m != nil {
		s.pending = m
	}
	if s.pending == nil {
		return s.recvAct
	}
	s.handled++
	return s.replyAct
}

// netClient issues echo RPCs to the remote machine via a proxy port.
type netClient struct {
	sys   *kern.System
	proxy *ipc.Port
	reply *ipc.Port
	bytes int
	rpcs  int
	done  int

	rpcAct core.Action
}

func (c *netClient) Next(e *core.Env, t *core.Thread) core.Action {
	if c.rpcAct.Invoke == nil {
		c.rpcAct = core.Syscall("mach_msg(net-rpc)", func(e *core.Env) {
			req := c.sys.IPC.NewMessage(1, c.bytes, nil, c.reply)
			c.sys.IPC.MachMsg(e, ipc.MsgOptions{
				Send: req, SendTo: c.proxy, ReceiveFrom: c.reply,
			})
		})
	}
	if m := c.sys.IPC.Received(t); m != nil {
		c.done++
		c.sys.IPC.FreeMessage(m)
	}
	if c.done >= c.rpcs {
		return core.Exit()
	}
	return c.rpcAct
}

// diskReader issues back-to-back device_read calls against the paging
// disk, so BlockDeviceIO rows (and queueing against VM page traffic)
// come from a real user thread.
type diskReader struct {
	sys   *kern.System
	disk  *dev.Device
	bytes int
	reads int
	done  int

	readAct core.Action
}

func (r *diskReader) Next(e *core.Env, t *core.Thread) core.Action {
	if r.done >= r.reads {
		return core.Exit()
	}
	r.done++
	if r.readAct.Invoke == nil {
		r.readAct = core.Syscall("device_read", func(e *core.Env) {
			d := r.sys.Dev.Open(e, r.disk.Name)
			r.sys.Dev.DeviceRead(e, d, r.bytes)
		})
	}
	return r.readAct
}

// RunNetRPC boots 2*Pairs machines, wires each pair's NICs together, and
// drives the cluster until every client has completed its RPCs and the
// disk readers have drained (or no machine can progress). Fully
// deterministic: with the same spec the run is byte-identical regardless
// of spec.Parallel or GOMAXPROCS.
func RunNetRPC(flavor kern.Flavor, arch machine.Arch, spec NetRPCSpec) *NetRPCResult {
	res, clis, readers := bootNetRPC(flavor, arch, spec)
	res.drive()
	for _, cli := range clis {
		res.Completed += cli.done
	}
	res.countDiskReads(readers)
	return res
}

// countDiskReads records the disk readers' completions on machines 0
// and 1 (readers[i] runs on machine i).
func (r *NetRPCResult) countDiskReads(readers []*diskReader) {
	for i := range r.DiskReadsDone {
		if i < len(readers) {
			r.DiskReadsDone[i] = readers[i].done
		}
	}
}

// bootNetRPC boots the pairs and starts their threads without driving
// them: RunNetRPC's setup phase, shared with the driver-level tests.
func bootNetRPC(flavor kern.Flavor, arch machine.Arch, spec NetRPCSpec) (*NetRPCResult, []*netClient, []*diskReader) {
	pairs := max(spec.Pairs, 1)
	clients := max(spec.Clients, 1)
	msgBytes := max(spec.MsgBytes, ipc.HeaderBytes)
	roles := make([]string, 0, 2*pairs)
	links := make([][2]int, pairs)
	for i := range links {
		roles = append(roles, "client", "server")
		links[i] = [2]int{2 * i, 2*i + 1}
	}
	res := &NetRPCResult{}
	res.Cluster = Boot(ClusterSpec{
		ClusterOptions: spec.ClusterOptions,
		Config:         kern.Config{Flavor: flavor, Arch: arch, DiskLatency: spec.DiskLatency},
		Roles:          roles,
		Links:          links,
		Observe:        spec.Observe,
	})

	var clis []*netClient
	for i := 0; i < pairs; i++ {
		a, b := res.Machines[2*i], res.Machines[2*i+1]

		// Echo server on machine B, reachable from the wire as "echo".
		st := b.NewTask("echo-server")
		sport := b.IPC.NewPort("echo")
		if clients > 1 {
			// Many clients can land requests in the same wire-latency
			// window; the default queue limit would force senders into
			// the full-queue backoff path and serialize them.
			sport.QueueLimit = 2 * clients
		}
		b.Net.Export("echo", sport)
		srv := &netEchoServer{sys: b, port: sport}
		b.Start(st.NewThread("srv", srv, 20))

		// Clients on machine A, talking to B through a proxy port. Each
		// needs its own reply port (netmsg auto-export is name-keyed);
		// client 0 keeps the historical names so single-client runs are
		// byte-identical to the old two-machine driver.
		ct := a.NewTask("net-client")
		for j := 0; j < clients; j++ {
			replyName, threadName := "echo-reply", "cli"
			if j > 0 {
				replyName = fmt.Sprintf("echo-reply-%d", j)
				threadName = fmt.Sprintf("cli-%d", j)
			}
			cli := &netClient{sys: a, proxy: a.Net.ProxyFor("echo"),
				reply: a.IPC.NewPort(replyName), bytes: msgBytes, rpcs: spec.RPCs}
			clis = append(clis, cli)
			a.Start(ct.NewThread(threadName, cli, 10))
		}
	}
	res.Client, res.Server = res.Machines[0], res.Machines[1]
	return res, clis, startDiskReaders(res.Machines, spec)
}

// startDiskReaders starts one disk reader per machine (none when
// spec.DiskReads is 0), keeping the device layer busy so a crash lands
// on real in-flight I/O.
func startDiskReaders(machines []*kern.System, spec NetRPCSpec) []*diskReader {
	if spec.DiskReads <= 0 {
		return nil
	}
	readers := make([]*diskReader, len(machines))
	for i, sys := range machines {
		task := sys.NewTask("disk-reader")
		readers[i] = &diskReader{sys: sys, disk: sys.Disk,
			bytes: spec.DiskReadBytes, reads: spec.DiskReads}
		sys.Start(task.NewThread("rd", readers[i], 12))
	}
	return readers
}
