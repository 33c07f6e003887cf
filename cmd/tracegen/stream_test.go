package main

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mpipredict/internal/trace"
)

func TestSyntheticFlagValidation(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "events conflicts with workload", args: []string{"-events", "10", "-workload", "bt"}, wantErr: "ignored with -events"},
		{name: "events conflicts with procs", args: []string{"-events", "10", "-procs", "4"}, wantErr: "ignored with -events"},
		{name: "period without events", args: []string{"-period", "9"}, wantErr: "add -events"},
		{name: "swap without events", args: []string{"-swap", "0.1"}, wantErr: "add -events"},
		{name: "bad period", args: []string{"-events", "10", "-period", "0"}, wantErr: "-period"},
		{name: "bad swap", args: []string{"-events", "10", "-swap", "1.5"}, wantErr: "-swap"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := runCLI(t, tt.args...)
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tt.wantErr)
			}
		})
	}
}

// TestStreamedSyntheticExportByteIdentical is the satellite acceptance
// test: for a small synthetic trace, -events -stream (block pipeline,
// constant memory) writes the byte-identical file that the in-memory
// path produces, for both output formats.
func TestStreamedSyntheticExportByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, tt := range []struct{ flag, a, b string }{
		{"-o", filepath.Join(dir, "mem.mpts"), filepath.Join(dir, "str.mpts")},
		{"-out", filepath.Join(dir, "mem.jsonl"), filepath.Join(dir, "str.jsonl")},
	} {
		args := []string{"-events", "500", "-period", "7", "-swap", "0.1", "-seed", "5"}
		if _, _, err := runCLI(t, append(args, tt.flag, tt.a)...); err != nil {
			t.Fatal(err)
		}
		if _, _, err := runCLI(t, append(args, "-stream", tt.flag, tt.b)...); err != nil {
			t.Fatal(err)
		}
		mem, err := os.ReadFile(tt.a)
		if err != nil {
			t.Fatal(err)
		}
		str, err := os.ReadFile(tt.b)
		if err != nil {
			t.Fatal(err)
		}
		if string(mem) != string(str) {
			t.Errorf("%s: streamed export differs from the in-memory one", tt.flag)
		}
	}
}

// TestStreamedSyntheticExportLargerThanBuffered generates a trace bigger
// than the old in-memory path would ever buffer (it held every record in
// a []trace.Record before writing — here ~400k records never exist at
// once) and verifies the streamed file decodes intact with the expected
// event count.
func TestStreamedSyntheticExportLargerThanBuffered(t *testing.T) {
	const events = 200_000 // per level; 400k records total
	path := filepath.Join(t.TempDir(), "big.mpts")
	stdout, _, err := runCLI(t, "-events", strconv.Itoa(events), "-period", "18", "-swap", "0.02", "-stream", "-o", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "streamed") {
		t.Errorf("summary line missing the streamed marker: %q", stdout)
	}
	r, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	for {
		_, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decoding record %d: %v", n, err)
		}
		n++
	}
	if n != 2*events {
		t.Errorf("decoded %d records, want %d", n, 2*events)
	}
}

// TestStreamedWorkloadExportByteIdentical covers the simulator path: a
// workload streamed through RunToSink encodes byte-identically to the
// trace Run materializes.
func TestStreamedWorkloadExportByteIdentical(t *testing.T) {
	dir := t.TempDir()
	mem := filepath.Join(dir, "mem.mpts")
	str := filepath.Join(dir, "str.mpts")
	args := []string{"-workload", "cg", "-procs", "4", "-iterations", "2", "-seed", "3"}
	if _, _, err := runCLI(t, append(args, "-o", mem)...); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, append(args, "-stream", "-o", str)...); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(mem)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(str)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("streamed workload export differs from the in-memory one")
	}
}

// TestStreamedExportToStdout covers the no-output-file case: JSONL flows
// to stdout through the streaming writer and decodes intact.
func TestStreamedExportToStdout(t *testing.T) {
	stdout, _, err := runCLI(t, "-events", "50", "-period", "5", "-stream")
	if err != nil {
		t.Fatal(err)
	}
	tr := loadStdout(t, stdout)
	if tr.Len() != 100 || tr.App != "synth" {
		t.Errorf("decoded %d records of app %q, want 100 of synth", tr.Len(), tr.App)
	}
}
