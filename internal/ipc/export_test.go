package ipc

import "repro/internal/core"

// RegisterUncounted puts a live receive registration for t on p without
// counting it in liveRegs: a registration path that bypassed newWaiter.
func (x *IPC) RegisterUncounted(p *Port, t *core.Thread) {
	p.waiters = append(p.waiters, &rcvWaiter{t: t})
}
