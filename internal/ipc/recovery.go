package ipc

import (
	"fmt"

	"repro/internal/core"
)

// AbortWaiter cancels t's registration on whatever waiter or send-waiter
// list holds it, cancelling any armed callout, and returns the Mach code
// the aborted mach_msg should complete with: RcvInterrupted for a
// blocked receive (port or set), SendInterrupted for a sender parked on
// a full queue. It returns ok=false when t is not blocked in IPC; the
// thread itself is not touched — kern's thread_abort resumes it.
func (x *IPC) AbortWaiter(t *core.Thread) (code uint64, ok bool) {
	cancel := func(list []*rcvWaiter) bool {
		for _, w := range list {
			if w.cancelled || w.t != t {
				continue
			}
			x.cancel(w)
			if w.timeout != nil {
				x.K.Clock.Cancel(w.timeout)
			}
			return true
		}
		return false
	}
	for _, p := range x.ports {
		if cancel(p.waiters) {
			return RcvInterrupted, true
		}
		if cancel(p.sendWaiters) {
			return SendInterrupted, true
		}
	}
	for _, ps := range x.sets {
		if cancel(ps.waiters) {
			return RcvInterrupted, true
		}
	}
	return 0, false
}

// checkInvariants is the IPC contribution to the kernel invariant sweep
// (registered by New, run by core.Kernel.Validate): every live waiter
// registration belongs to a thread that is actually waiting, no thread
// is live on two lists at once, and no cancelled registration still
// holds an armed callout.
func (x *IPC) checkInvariants() error {
	where := make(map[*core.Thread]string)
	check := func(list []*rcvWaiter, label string) error {
		for _, w := range list {
			if w.cancelled {
				if w.timeout.Pending() {
					return fmt.Errorf("ipc: cancelled waiter %v on %s holds a live callout", w.t, label)
				}
				continue
			}
			if w.t.State != core.StateWaiting {
				return fmt.Errorf("ipc: live waiter %v on %s is %v, not waiting", w.t, label, w.t.State)
			}
			if prev, dup := where[w.t]; dup {
				return fmt.Errorf("ipc: %v live on both %s and %s", w.t, prev, label)
			}
			where[w.t] = label
		}
		return nil
	}
	for _, p := range x.ports {
		if err := check(p.waiters, "port "+p.Name); err != nil {
			return err
		}
		if err := check(p.sendWaiters, "send-waiters of "+p.Name); err != nil {
			return err
		}
	}
	for _, ps := range x.sets {
		if err := check(ps.waiters, "set "+ps.Name); err != nil {
			return err
		}
	}
	return nil
}
