package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/workloads"
)

// runCLI invokes the command body and returns its streams.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestFlagParsing(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string // substring of the error; empty means success
	}{
		{name: "defaults write JSONL to stdout", args: []string{"-iterations", "1"}},
		{name: "list", args: []string{"-list"}},
		{name: "unknown flag", args: []string{"-frobnicate"}, wantErr: "flag provided but not defined"},
		{name: "positional args rejected", args: []string{"-iterations", "1", "stray"}, wantErr: "unexpected arguments"},
		{name: "unknown workload", args: []string{"-workload", "nope"}, wantErr: "unknown workload"},
		{name: "bad proc count", args: []string{"-workload", "bt", "-procs", "5"}, wantErr: "perfect square"},
		{name: "negative iterations", args: []string{"-iterations", "-3"}, wantErr: "Iterations"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := runCLI(t, tt.args...)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tt.wantErr)
			}
		})
	}
}

func TestListPrintsCatalog(t *testing.T) {
	stdout, _, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing workload %q:\n%s", name, stdout)
		}
	}
}

func TestStdoutJSONLRoundTrips(t *testing.T) {
	stdout, _, err := runCLI(t, "-workload", "bt", "-procs", "4", "-iterations", "1")
	if err != nil {
		t.Fatal(err)
	}
	tr := loadStdout(t, stdout)
	if tr.App != "bt" || tr.Procs != 4 || tr.Len() == 0 {
		t.Errorf("decoded %s.%d with %d records", tr.App, tr.Procs, tr.Len())
	}
}

func TestBinaryExportMatchesDirectSimulation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bt4.mpts")
	stdout, _, err := runCLI(t, "-workload", "bt", "-procs", "4", "-iterations", "2", "-seed", "7", "-o", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "store v1") {
		t.Errorf("summary line missing the store marker: %q", stdout)
	}
	exported, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := workloads.Run(workloads.RunConfig{
		Spec: workloads.Spec{Name: "bt", Procs: 4, Iterations: 2},
		Net:  simnet.DefaultConfig(),
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exported.App != direct.App || exported.Procs != direct.Procs {
		t.Fatalf("metadata: exported %s.%d, direct %s.%d", exported.App, exported.Procs, direct.App, direct.Procs)
	}
	if !reflect.DeepEqual(exported.Records, direct.Records) {
		t.Error("exported trace differs from a direct simulation with the same configuration")
	}
	// The file opens through the store's own reader as well as through
	// the trace.Open sniffing point used above.
	r, err := tracestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Events() != int64(len(direct.Records)) {
		t.Errorf("store indexes %d events, trace holds %d", r.Events(), len(direct.Records))
	}
}

func TestBothOutputsAgree(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "t.mpts")
	jsonl := filepath.Join(dir, "t.jsonl")
	if _, _, err := runCLI(t, "-workload", "cg", "-procs", "4", "-iterations", "1", "-o", bin, "-out", jsonl); err != nil {
		t.Fatal(err)
	}
	fromBin, err := trace.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := trace.Load(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin.Records, fromJSONL.Records) {
		t.Error("store and JSONL exports of one run decode to different records")
	}
}

func TestAllReceiversExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "all.mpts")
	if _, _, err := runCLI(t, "-workload", "bt", "-procs", "4", "-iterations", "1", "-all-receivers", "-o", path); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Receivers()); got != 4 {
		t.Errorf("traced %d receivers, want all 4", got)
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-version"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "tracegen ") {
		t.Fatalf("version output = %q", out.String())
	}
}

// loadStdout decodes a JSONL trace the command wrote to stdout.
func loadStdout(t *testing.T, stdout string) *trace.Trace {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout.jsonl")
	if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatalf("stdout is not a readable JSONL trace: %v", err)
	}
	return tr
}
