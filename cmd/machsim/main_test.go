package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// resolveArgs parses args on a fresh flag set and resolves them the way
// main does.
func resolveArgs(args []string) error {
	var o options
	fs := newFlags(&o, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return o.resolve(fs)
}

// TestValidateWorkloadFlags covers the command lines machsim rejects
// with exit 2 before booting anything: flags the chosen workload does
// not read, flag values that cannot describe a run, and -breakoverload
// with nothing to shed.
func TestValidateWorkloadFlags(t *testing.T) {
	tests := []struct {
		name    string
		args    string
		wantErr string // substring; empty means valid
	}{
		{name: "defaults compile", args: "-workload compile"},
		{name: "defaults mtload", args: "-workload mtload"},
		{name: "mtload explicit sizes", args: "-workload mtload -machines 256 -tenants 8 -sessions 500"},
		{name: "mtload with parallel and check", args: "-workload mtload -parallel -check -trace t.json"},

		{name: "machines on netrpc", args: "-workload netrpc -machines 8", wantErr: "-machines does not apply to -workload netrpc"},
		{name: "tenants on kv", args: "-workload kv -tenants 4", wantErr: "-tenants does not apply to -workload kv"},
		{name: "sessions on compile", args: "-workload compile -sessions 4", wantErr: "-sessions does not apply to -workload compile"},

		{name: "pairs on mtload", args: "-workload mtload -pairs 2", wantErr: "-pairs does not apply to -workload mtload"},
		{name: "clients on mtload", args: "-workload mtload -clients 2", wantErr: "-clients does not apply"},
		// The HA topology is -workload failover; the -failover flag is gone.
		{name: "failover on mtload", args: "-workload mtload -failover", wantErr: "flag provided but not defined: -failover"},
		{name: "faults on mtload", args: "-workload mtload -faults 1:drop=0.1", wantErr: "-faults does not apply"},
		{name: "crash on mtload", args: "-workload mtload -crash 1@40ms", wantErr: "-crash does not apply"},
		{name: "fuzz on mtload", args: "-workload mtload -fuzz 7:1", wantErr: "-fuzz does not apply to -workload mtload"},
		{name: "breakkv on mtload", args: "-workload mtload -breakkv", wantErr: "-breakkv does not apply"},
		{name: "sample on mtload", args: "-workload mtload -sample 1/4", wantErr: "-sample does not apply"},
		{name: "scale on mtload", args: "-workload mtload -scale 0.5", wantErr: "-scale does not apply"},

		{name: "overload on kv", args: "-workload kv -overload on"},
		{name: "overload off on kv with faults", args: "-workload kv -overload off -faults 1:drop=0.1 -check"},
		{name: "overload on netrpc", args: "-workload netrpc -overload on", wantErr: "-overload does not apply to -workload netrpc"},
		{name: "overload on compile", args: "-workload compile -overload on", wantErr: "-overload does not apply"},
		{name: "breakoverload without overload", args: "-workload kv -breakoverload", wantErr: "-breakoverload requires -overload"},
		{name: "breakoverload armed kv", args: "-workload kv -overload on -breakoverload"},
		{name: "armed fuzz campaign", args: "-workload kv -overload on -fuzz 7:4 -breakoverload"},

		{name: "storm mode plain", args: "-workload storm -overload on"},
		{name: "storm mode with trigger and sessions",
			args: "-workload storm -overload off -faults 7:burst=5@60ms+20ms -sessions 24 -check -parallel"},
		{name: "storm mode breakoverload", args: "-workload storm -breakoverload"},
		{name: "storm mode rejects machines", args: "-workload storm -machines 8", wantErr: "-machines does not apply to -workload storm"},
		{name: "storm mode rejects tenants", args: "-workload storm -tenants 4", wantErr: "-tenants does not apply to -workload storm"},
		{name: "storm mode rejects fuzz", args: "-workload storm -fuzz 7:1", wantErr: "-fuzz does not apply to -workload storm"},
		{name: "storm mode rejects breakkv", args: "-workload storm -breakkv", wantErr: "-breakkv does not apply to -workload storm"},
		{name: "storm mode zero sessions set", args: "-workload storm -sessions 0", wantErr: "-sessions must be >= 1"},

		{name: "odd machines", args: "-workload mtload -machines 9", wantErr: "must be even"},
		{name: "too few machines", args: "-workload mtload -machines 0", wantErr: "must be even and >= 2"},
		{name: "zero tenants", args: "-workload mtload -tenants 0", wantErr: "-tenants must be >= 1"},
		{name: "zero sessions set", args: "-workload mtload -sessions 0", wantErr: "-sessions must be >= 1"},
		{name: "derived sessions ok", args: "-workload mtload -tenants 2"},

		{name: "fuzz without workload fuzzes kv", args: "-arch ds3100 -fuzz 7:4 -breakkv"},
		{name: "fuzzout needs fuzz", args: "-workload kv -fuzzout d", wantErr: "-fuzzout does not apply to -workload kv"},
		{name: "faults with fuzz", args: "-fuzz 7:4 -faults 1:drop=0.1", wantErr: "-faults does not apply to -workload kv -fuzz"},
		{name: "crash alias", args: "-workload svcgraph -crash cache@30ms:reboot+30ms"},
		{name: "crash machine out of range", args: "-workload kv -crash 4@30ms", wantErr: "has machines 0..3"},
		{name: "crash rule on netrpc", args: "-workload netrpc -faults 1:crash=1@40ms", wantErr: "crash rules have no effect on -workload netrpc"},
		{name: "burst on kv", args: "-workload kv -faults 1:burst=2@40ms+10ms", wantErr: "burst rules have no effect on -workload kv"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := resolveArgs(strings.Fields(tc.args))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
