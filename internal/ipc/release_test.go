package ipc_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
)

// reapWithRegistration runs one thread that registers on a port, returns
// to user mode and exits, leaving the registration on the port's waiter
// list for the reaper. It returns the reaper's panic, if any.
func reapWithRegistration(t *testing.T, register func(x *ipc.IPC, p *ipc.Port, th *core.Thread)) (leak string) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	port := sys.IPC.NewPort("p")
	done := false
	th := sys.NewTask("t").NewThread("exiting", core.ProgramFunc(func(e *core.Env, t *core.Thread) core.Action {
		if done {
			return core.Exit()
		}
		done = true
		return core.Syscall("register", func(e *core.Env) {
			register(sys.IPC, port, e.Cur())
			e.K.ThreadSyscallReturn(e, 0)
		})
	}), 10)
	sys.Start(th)
	defer func() {
		if r := recover(); r != nil {
			leak = fmt.Sprint(r)
		}
	}()
	sys.K.Run(0)
	if sys.Reaped < 1 {
		t.Fatalf("Reaped = %d, want >= 1", sys.Reaped)
	}
	return ""
}

// TestReleaseSweepsCountedRegistration: a registration made through the
// counted path is still live when its thread exits; ReleaseThread sees
// the nonzero count, sweeps, and the reap comes back clean.
func TestReleaseSweepsCountedRegistration(t *testing.T) {
	leak := reapWithRegistration(t, func(x *ipc.IPC, p *ipc.Port, th *core.Thread) {
		x.RegisterReceiver(th, p, 0)
	})
	if leak != "" {
		t.Fatalf("counted registration leaked: %s", leak)
	}
}

// TestReaperCatchesUncountedRegistration is the live-registration count's
// negative test: ReleaseThread trusts a zero count and skips its sweep, so
// a registration that bypassed the count is left live — and the reaper's
// Residue scan must catch it.
func TestReaperCatchesUncountedRegistration(t *testing.T) {
	leak := reapWithRegistration(t, func(x *ipc.IPC, p *ipc.Port, th *core.Thread) {
		x.RegisterUncounted(p, th)
	})
	if !strings.Contains(leak, "reaper leak") {
		t.Fatalf("reaper panic = %q, want a reaper leak", leak)
	}
}
