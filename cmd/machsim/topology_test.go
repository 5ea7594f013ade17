package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// machsimBinary builds this command once per test into a temp dir.
func machsimBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "machsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runMachsim runs the binary and returns its stdout, stderr and exit code.
func runMachsim(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("machsim %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// sumCounter adds up every integer the pattern's first group captures.
func sumCounter(report, pattern string) int {
	n := 0
	for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(report, -1) {
		v, _ := strconv.Atoi(m[1])
		n += v
	}
	return n
}

// TestTopologyFaultEffectMatrix runs every topology rule kind against
// every workload family: each cell must either exit 2 naming the rule or
// show the rule's effect in a report counter — packets severed for a
// partition or a dropped link, and for a gray slowdown or a demand burst
// a cluster-step count that differs from the same rule with its window
// placed after the run has ended.
func TestTopologyFaultEffectMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs machsim end to end")
	}
	bin := machsimBinary(t)
	type workload struct {
		name string
		args []string
	}
	workloads := []workload{
		{"compile", []string{"-workload", "compile", "-scale", "0.02"}},
		{"netrpc", []string{"-workload", "netrpc"}},
		{"svcgraph", []string{"-workload", "svcgraph"}},
		{"kv", []string{"-workload", "kv", "-arch", "ds3100"}},
		{"storm", []string{"-workload", "mtload", "-arch", "ds3100", "-overload", "on"}},
	}
	// Each rule runs at 60ms for 20ms; inert is the same rule scheduled
	// after every workload here has finished.
	rules := []struct {
		kind, active, inert string
	}{
		{"partition", "partition=1|0.2.3@60ms+20ms", ""},
		{"link", "link=0>1:drop@60ms+20ms", ""},
		{"gray", "gray=1:10@60ms+20ms", "gray=1:10@60s+20ms"},
		{"burst", "burst=5@60ms+20ms", "burst=5@60s+20ms"},
	}
	severed := `(\d+) packets severed`
	steps := `\((\d+) cluster steps\)`
	for _, w := range workloads {
		for _, r := range rules {
			w, r := w, r
			t.Run(w.name+"/"+r.kind, func(t *testing.T) {
				enforced := topologyKinds(w.args[1], w.name == "storm")[r.kind]
				out, stderr, code := runMachsim(t, bin, append(w.args, "-faults", "7:"+r.active)...)
				if !enforced {
					if code != 2 || !strings.Contains(stderr, r.kind+" rules have no effect") {
						t.Fatalf("exit %d, stderr %q: want exit 2 rejecting the %s rule", code, stderr, r.kind)
					}
					return
				}
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr)
				}
				if r.inert == "" {
					if n := sumCounter(out, severed); n == 0 {
						t.Fatalf("%s rule accepted but no packets severed:\n%s", r.kind, out)
					}
					return
				}
				base, stderr, code := runMachsim(t, bin, append(w.args, "-faults", "7:"+r.inert)...)
				if code != 0 {
					t.Fatalf("inert run: exit %d: %s", code, stderr)
				}
				a, b := sumCounter(out, steps), sumCounter(base, steps)
				if a == 0 || a == b {
					t.Fatalf("%s rule accepted but cluster steps %d vs inert %d", r.kind, a, b)
				}
			})
		}
	}
}
