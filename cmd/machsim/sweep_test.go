package main

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sweepValues gives every flag a value that differs from its default
// on every workload that reads it; bool flags take none.
var sweepValues = map[string]string{
	"flavor":   "mk32",
	"arch":     "toshiba",
	"scale":    "0.1",
	"seed":     "99",
	"faults":   "42:drop=0.1,devfail=0.05",
	"pairs":    "2",
	"clients":  "4",
	"fuzz":     "7:1",
	"sample":   "1/4",
	"machines": "4",
	"tenants":  "2",
	"sessions": "10",
	"overload": "on:deadline=9ms",
	"crash":    "1@40ms:reboot+40ms",
}

// sweepBase are the arguments every sweep run starts from: the fast
// DS3100 machine, and an mtload small enough to run -check quickly.
func sweepBase(name string) []string {
	args := []string{"-workload", name, "-arch", "ds3100"}
	if name == "mtload" {
		args = append(args, "-sessions", "50")
	}
	return args
}

// silentBefore are cells that used to run and print exactly what the
// run without the flag prints; each must now exit 2.
var silentBefore = []string{
	"kv/pairs", "kv/scale", "kv/v",
	"netrpc/seed", "netrpc/sample", "netrpc/breakkv",
	"svcgraph/breakkv", "svcgraph/fuzz",
}

// TestFlagWorkloadSweep runs every machsim flag against every workload.
// Each cell must either exit 2 naming the flag, or print a report that
// differs from the same run without the flag. -parallel instead must
// print byte-identical output, -trace must write its file, and -check,
// which arms assertions, may leave a report without a faults section
// unchanged. Stages: build the binary, run each workload's baseline,
// then every cell in parallel (about 210 runs, ~4 s on a 2-core VM).
func TestFlagWorkloadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs machsim end to end")
	}
	bin := machsimBinary(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	var flags []string
	newFlags(&options{}, flag.ContinueOnError).VisitAll(func(f *flag.Flag) {
		if f.Name != "workload" {
			flags = append(flags, f.Name)
		}
	})
	var mu sync.Mutex
	base := map[string]string{}

	t.Run("baseline", func(t *testing.T) {
		for _, name := range names {
			name := name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				out, stderr, code := runMachsim(t, bin, sweepBase(name)...)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr)
				}
				mu.Lock()
				base[name] = out
				mu.Unlock()
			})
		}
	})
	if len(base) != len(names) {
		t.Fatal("a baseline run failed")
	}
	t.Run("cells", func(t *testing.T) {
		for _, name := range names {
			for _, fl := range flags {
				name, fl := name, fl
				t.Run(name+"/"+fl, func(t *testing.T) {
					t.Parallel()
					args := append(sweepBase(name), "-"+fl)
					var file string
					switch fl {
					case "trace":
						file = filepath.Join(t.TempDir(), "trace.json")
						args = append(args, file)
					case "fuzzout":
						args = append(args, t.TempDir())
					default:
						if v, ok := sweepValues[fl]; ok {
							args = append(args, v)
						}
					}
					out, stderr, code := runMachsim(t, bin, args...)
					mustExit2 := false
					for _, c := range silentBefore {
						mustExit2 = mustExit2 || c == name+"/"+fl
					}
					switch {
					case code == 2:
						if !strings.Contains(stderr, "-"+fl) {
							t.Fatalf("exit 2 without naming -%s: %q", fl, stderr)
						}
						return
					case mustExit2:
						t.Fatalf("exit %d, want 2: -%s has no effect on %s", code, fl, name)
					case code != 0:
						t.Fatalf("exit %d: %s", code, stderr)
					}
					same := out == base[name]
					switch fl {
					case "parallel":
						if !same {
							t.Fatalf("-parallel changed the output")
						}
					case "trace":
						if st, err := os.Stat(file); err != nil || st.Size() == 0 {
							t.Fatalf("-trace wrote no file: %v", err)
						}
					case "check":
						if !same && !strings.Contains(out, "final invariant check: clean") {
							t.Fatalf("-check changed the report without a final invariant check")
						}
					default:
						if same {
							t.Fatalf("-%s accepted on %s but the output is unchanged", fl, name)
						}
					}
				})
			}
		}
	})
}
