// tracer prints the control-transfer trace of one fast kernel path: the
// steady-state fast RPC of the paper's Figure 2, or the interrupt-driven
// device_read the device subsystem adds.
//
// The rendering comes from the obs event ring: the experiment enables a
// recorder around exactly one operation and prints the control-transfer
// steps it captured (obs.Steps), the same events richer tooling
// (machsim -trace/-profile, traceview) reads.
//
// Usage:
//
//	tracer [-path rpc|device]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

var path = flag.String("path", "rpc", "rpc or device")

func main() {
	flag.Parse()
	if err := run(os.Stdout, *path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// run writes the trace of the named path to w.
func run(w io.Writer, path string) error {
	switch path {
	case "rpc":
		fmt.Fprintln(w, "Figure 2: the calling half of the fast RPC path (one traced RPC)")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "  client calls mach_msg: enter kernel, copy in the request, find")
		fmt.Fprintln(w, "  the server blocked in mach_msg_continue, hand the stack over,")
		fmt.Fprintln(w, "  recognize the continuation, copy out, exit as the server — then")
		fmt.Fprintln(w, "  the same again in the reply direction.")
		fmt.Fprintln(w)
		fmt.Fprint(w, experiments.Figure2Trace())
		fmt.Fprintln(w)
		fmt.Fprintln(w, "no queue-message, dequeue-message or context-switch steps appear:")
		fmt.Fprintln(w, "the transfer runs entirely in the shared call context (§2.4).")
	case "device":
		fmt.Fprintln(w, "One interrupt-driven device_read (MK40, traced end to end)")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "  the reader blocks with device_read_continue and its stack is")
		fmt.Fprintln(w, "  discarded; the transfer interrupt runs on whatever stack the")
		fmt.Fprintln(w, "  processor is using (here: parked, so no thread's); the io_done")
		fmt.Fprintln(w, "  thread hands its own stack to the reader and recognition of the")
		fmt.Fprintln(w, "  device continuation finishes the read inline.")
		fmt.Fprintln(w)
		fmt.Fprint(w, experiments.DeviceReadTrace())
		fmt.Fprintln(w)
		fmt.Fprintln(w, "no stack is allocated anywhere on this path: the interrupt borrows")
		fmt.Fprintln(w, "the current stack and the completion arrives by stack handoff.")
	default:
		return fmt.Errorf("unknown path %q (want rpc or device)", path)
	}
	return nil
}
