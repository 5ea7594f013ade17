package ipc

import "repro/internal/core"

// ReleaseThread drops every IPC resource still charged to a thread that
// will never run again: a halted thread about to be reaped, or one
// killed by thread_abort racing its own exit. Delivered and received
// message buffers go back to the free pool, a pending receive error is
// forgotten, and any waiter registration still naming the thread is
// cancelled with its callout disarmed — which also makes the
// registration recyclable (freeWaiter refuses registrations holding an
// armed timeout, so before this an abnormally terminated receiver could
// strand its registration for the garbage collector). The waiter lists
// are swept only when the thread still counts a live registration, so a
// normal reap costs O(1) rather than O(ports).
func (x *IPC) ReleaseThread(t *core.Thread) {
	if m := x.delivered[t.ID]; m != nil {
		delete(x.delivered, t.ID)
		x.FreeMessage(m)
	}
	if m := x.received[t.ID]; m != nil {
		delete(x.received, t.ID)
		x.FreeMessage(m)
	}
	delete(x.rcvError, t.ID)
	if t.ID >= len(x.liveRegs) || x.liveRegs[t.ID] == 0 {
		return
	}
	for _, p := range x.ports {
		x.cancelRegistrations(p.waiters, t)
		x.cancelRegistrations(p.sendWaiters, t)
	}
	for _, ps := range x.sets {
		x.cancelRegistrations(ps.waiters, t)
	}
}

// cancelRegistrations cancels every registration naming t on one waiter
// list, disarming callouts. The entries stay in place — the normal pop
// and sweep paths recycle cancelled registrations.
func (x *IPC) cancelRegistrations(list []*rcvWaiter, t *core.Thread) {
	for _, w := range list {
		if w.t != t {
			continue
		}
		if w.timeout != nil {
			x.K.Clock.Cancel(w.timeout)
			w.timeout = nil
		}
		x.cancel(w)
	}
}

// Residue counts IPC state still attached to a thread: pending message
// buffers, a saved receive error, and live waiter registrations. It is
// zero after ReleaseThread; the kern reaper asserts this census on every
// reap so a leak on the abnormal-termination path fails loudly. Its full
// scan of the waiter lists is also what catches a live-registration count
// that reads zero while a registration is still live.
func (x *IPC) Residue(t *core.Thread) int {
	n := 0
	if x.delivered[t.ID] != nil {
		n++
	}
	if x.received[t.ID] != nil {
		n++
	}
	if _, ok := x.rcvError[t.ID]; ok {
		n++
	}
	live := func(list []*rcvWaiter) {
		for _, w := range list {
			if !w.cancelled && w.t == t {
				n++
			}
		}
	}
	for _, p := range x.ports {
		live(p.waiters)
		live(p.sendWaiters)
	}
	for _, ps := range x.sets {
		live(ps.waiters)
	}
	return n
}

// LivePorts counts undestroyed ports — the port census captured into a
// crash panic record.
func (x *IPC) LivePorts() int {
	n := 0
	for _, p := range x.ports {
		if !p.dead {
			n++
		}
	}
	return n
}
