package experiments_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// exportDigests reproduces, in process, the exports of two machsim runs
// and the traceview summaries of them, keyed by a stable name:
//
//	machsim -workload compile -scale 0.02 -trace out.json
//	machsim -workload kv -crash primary@40ms:reboot+160ms -trace out.json
//
// Each value is the SHA-256 of the exact bytes the CLI writes (the
// Chrome trace file, the KV report with its critical-path tables, and
// traceview's event and span summaries of the trace), so any change to
// event emission, storage, read-back or formatting shows up here.
func exportDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	sum := func(name string, b []byte) {
		h := sha256.Sum256(b)
		out[name] = hex.EncodeToString(h[:])
	}

	// -workload compile -scale 0.02 -trace (CLI defaults: mk40, toshiba,
	// seed 12345, no faults).
	wspec := workload.CompileTest().Scale(0.02)
	sys := workload.NewSystem(kern.MK40, machine.ArchToshiba5200, wspec)
	sys.InjectFaults(0, fault.Spec{})
	rec := sys.EnableObservation(0)
	workload.Install(sys, wspec, 12345).Run()
	rec.Census = sys.MemoryCensus()
	var compile bytes.Buffer
	if err := obs.WriteChrome(&compile, rec); err != nil {
		t.Fatal(err)
	}
	sum("compile.trace", compile.Bytes())
	view, err := obs.Summarize(compile.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum("compile.traceview", []byte(view))

	// -workload kv -crash primary@40ms:reboot+160ms -trace.
	crash, err := fault.ParseCrash("1@40ms:reboot+160ms")
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultKV()
	spec.FaultSpec.Crashes = []fault.Crash{crash}
	spec.SampleEvery = 1
	res := workload.RunKV(kern.MK40, machine.ArchToshiba5200, spec)
	var report bytes.Buffer
	workload.WriteKVReport(&report, kern.MK40, machine.ArchToshiba5200, res,
		workload.NetRPCReportOptions{Faults: true})
	sum("kv.report", report.Bytes())
	recs := make([]*obs.Recorder, len(res.Machines))
	for i, m := range res.Machines {
		recs[i] = m.K.Obs
	}
	var kv bytes.Buffer
	if err := obs.WriteChrome(&kv, recs...); err != nil {
		t.Fatal(err)
	}
	sum("kv.trace", kv.Bytes())
	if view, err = obs.Summarize(kv.Bytes()); err != nil {
		t.Fatal(err)
	}
	sum("kv.traceview", []byte(view))
	if view, err = obs.SummarizeSpans(kv.Bytes()); err != nil {
		t.Fatal(err)
	}
	sum("kv.traceview-spans", []byte(view))
	return out
}

// TestExportByteIdentity pins the SHA-256 of every export above. The
// digests were captured before the event ring was rebuilt around compact
// records, so a pass proves the rebuilt storage reads back exactly the
// bytes the old eager-string ring produced.
// Regenerate with: go test ./internal/experiments -run TestExportByteIdentity -update-golden
func TestExportByteIdentity(t *testing.T) {
	got := exportDigests(t)
	path := filepath.Join("testdata", "export_digests.txt")
	if *updateGolden {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", got[n], n)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s lists %d exports, the test produces %d", path, len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: sha256 %s, want %s", name, d, want[name])
		}
	}
}
