package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
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

// runMachsim runs the binary and returns its stdout, stderr and exit
// code. A run still going after a minute is killed and fails the test.
func runMachsim(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("machsim %v: still running after a minute", args)
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

// TestTopologyFaultEffectMatrix runs every topology rule kind, and a
// machine crash, against every workload family: each cell must either
// exit 2 naming the rule or show the rule's effect in a report counter —
// packets severed for a partition or a dropped link, a reported machine
// crash for a crash rule, and for a gray slowdown or a demand burst a
// cluster-step count that differs from the same rule with its window
// placed after the run has ended.
func TestTopologyFaultEffectMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs machsim end to end")
	}
	bin := machsimBinary(t)
	rows := []struct {
		name string
		args []string
	}{
		{"compile", []string{"-workload", "compile", "-scale", "0.02"}},
		{"netrpc", []string{"-workload", "netrpc"}},
		{"failover", []string{"-workload", "failover"}},
		{"svcgraph", []string{"-workload", "svcgraph"}},
		{"kv", []string{"-workload", "kv", "-arch", "ds3100"}},
		{"storm", []string{"-workload", "storm", "-arch", "ds3100", "-overload", "on"}},
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
		{"crash", "crash=1@60ms:reboot+20ms", ""},
	}
	severed := `(\d+) packets severed`
	steps := `\((\d+) cluster steps\)`
	for _, w := range rows {
		def := workloads[w.name]
		for _, r := range rules {
			w, r := w, r
			t.Run(w.name+"/"+r.kind, func(t *testing.T) {
				t.Parallel()
				enforced := map[string]bool{
					"partition": def.cluster, "link": def.cluster, "gray": def.cluster,
					"burst": def.openLoop, "crash": def.roles != nil,
				}[r.kind]
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
				switch {
				case r.kind == "crash":
					if !strings.Contains(out, "machine crashes 1, warm reboots 1") {
						t.Fatalf("crash rule accepted but no crash reported:\n%s", out)
					}
				case r.inert == "":
					if n := sumCounter(out, severed); n == 0 {
						t.Fatalf("%s rule accepted but no packets severed:\n%s", r.kind, out)
					}
				default:
					base, stderr, code := runMachsim(t, bin, append(w.args, "-faults", "7:"+r.inert)...)
					if code != 0 {
						t.Fatalf("inert run: exit %d: %s", code, stderr)
					}
					a, b := sumCounter(out, steps), sumCounter(base, steps)
					if a == 0 || a == b {
						t.Fatalf("%s rule accepted but cluster steps %d vs inert %d", r.kind, a, b)
					}
				}
			})
		}
	}
}

// TestCheckerFailureExitsOne is the checker's negative test at the CLI:
// the deliberately broken replicas under the fuzzer's minimal partition
// schedule print NOT linearizable, and machsim must exit 1, not 0.
func TestCheckerFailureExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("runs machsim end to end")
	}
	bin := machsimBinary(t)
	out, stderr, code := runMachsim(t, bin, "-workload", "kv", "-arch", "ds3100", "-breakkv",
		"-faults", "8709371129873690707:partition=2|0.1.3@30ms+38ms")
	if code != 1 || !strings.Contains(out, "checker: NOT linearizable") ||
		!strings.Contains(stderr, "checker failed") {
		t.Fatalf("exit %d, stderr %q: want exit 1 and a NOT linearizable report:\n%s", code, stderr, out)
	}
}
