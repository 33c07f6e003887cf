package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestListPrintsEveryBenchmark(t *testing.T) {
	stdout, _, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(stdout)
	if want := len(allBenchmarks()); len(lines) != want {
		t.Fatalf("-list printed %d names, want %d", len(lines), want)
	}
	for _, want := range []string{"table1", "figures34", "figure3-cold-serial", "serve-observe", "serve-predict",
		"wire-observe-block", "wire-predict", "serve-observe-block-markov1",
		"strategy-observe-dpd", "strategy-predict-dpd", "strategy-observe-lastvalue", "strategy-predict-markov1",
		"core-detector-observe", "core-stream-observe-locked", "core-stream-observe-learning", "core-stream-observe-churn"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-list output missing %q:\n%s", want, stdout)
		}
	}
}

func TestFlagParsing(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "unknown flag", args: []string{"-frobnicate"}, wantErr: "flag provided but not defined"},
		{name: "positional args rejected", args: []string{"table1"}, wantErr: "unexpected arguments"},
		{name: "bad run pattern", args: []string{"-run", "("}, wantErr: "bad -run pattern"},
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

func TestHelpIsNotAnError(t *testing.T) {
	_, _, err := runCLI(t, "-h")
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

// readSnapshot decodes a written benchmark snapshot file.
func readSnapshot(t *testing.T, path string) snapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	return snap
}

// TestDefaultOutputPathPicksNextFree pins the BENCH_<n>.json numbering: a
// run in a directory that already holds BENCH_1.json writes BENCH_2.json.
// The -run filter matches nothing, so the run exercises only flag parsing
// and output-path selection, not minutes of benchmarking.
func TestDefaultOutputPathPicksNextFree(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.WriteFile("BENCH_1.json", []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, _, err := runCLI(t, "-run", "matches-nothing")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(stdout) != "BENCH_2.json" {
		t.Fatalf("stdout = %q, want the next free path BENCH_2.json", stdout)
	}
	snap := readSnapshot(t, "BENCH_2.json")
	if len(snap.Results) != 0 || snap.GoVersion == "" {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
}

// TestExplicitOutputPathCreatesDirectories covers -out with a nested path.
func TestExplicitOutputPathCreatesDirectories(t *testing.T) {
	t.Chdir(t.TempDir())
	out := filepath.Join("nested", "dir", "bench.json")
	stdout, _, err := runCLI(t, "-run", "matches-nothing", "-out", out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(stdout) != out {
		t.Fatalf("stdout = %q, want %q", stdout, out)
	}
	readSnapshot(t, out)
}

// TestRunFilterSelectsAndBenchmarks runs the one benchmark cheap enough
// for a unit test — the registry-level observe — end to end and checks
// its result lands in the file with the throughput metric attached.
func TestRunFilterSelectsAndBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (fast) benchmark")
	}
	t.Chdir(t.TempDir())
	stdout, stderr, err := runCLI(t, "-run", "^serve-registry-observe$", "-out", "out.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "running serve-registry-observe") {
		t.Fatalf("progress log missing:\n%s", stderr)
	}
	if strings.Contains(stderr, "running table1") {
		t.Fatal("-run filter did not exclude table1")
	}
	if strings.TrimSpace(stdout) != "out.json" {
		t.Fatalf("stdout = %q", stdout)
	}
	snap := readSnapshot(t, "out.json")
	if len(snap.Results) != 1 || snap.Results[0].Name != "serve-registry-observe" {
		t.Fatalf("unexpected results: %+v", snap.Results)
	}
	r := snap.Results[0]
	if r.Iterations <= 0 || r.NsPerOp <= 0 {
		t.Fatalf("implausible benchmark result: %+v", r)
	}
	if r.Metrics["ops/s"] <= 0 {
		t.Fatalf("missing ops/s metric: %+v", r.Metrics)
	}
	if r.AllocsPerOp != 0 {
		t.Fatalf("registry observe allocates %d objects per op, want 0", r.AllocsPerOp)
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-version"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "benchjson ") {
		t.Fatalf("version output = %q", out.String())
	}
}
