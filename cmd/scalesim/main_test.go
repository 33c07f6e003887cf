package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/workloads"
)

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
		wantErr string
	}{
		{name: "unknown flag", args: []string{"-frobnicate"}, wantErr: "flag provided but not defined"},
		{name: "positional args rejected", args: []string{"memory"}, wantErr: "unexpected arguments"},
		{name: "unknown mode", args: []string{"-mode", "teleport", "-procs", "4", "-iterations", "1"}, wantErr: `unknown mode "teleport"`},
		{name: "unknown workload", args: []string{"-workload", "nope"}, wantErr: "unknown workload"},
		{name: "missing trace file", args: []string{"-trace", "/no/such/file.mpts"}, wantErr: "no such file"},
		{name: "trace rejects workload/procs", args: []string{"-trace", "x.mpts", "-workload", "bt", "-procs", "25"}, wantErr: "ignored with -trace"},
		{name: "trace rejects seed", args: []string{"-trace", "x.mpts", "-seed", "7"}, wantErr: "ignored with -trace"},
		{name: "static-sweep rejects trace", args: []string{"-mode", "static-sweep", "-trace", "x.mpts"}, wantErr: "static-sweep"},
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

func TestStaticSweep(t *testing.T) {
	stdout, _, err := runCLI(t, "-mode", "static-sweep")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Static per-peer buffer memory", "65536 processes"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("static-sweep output missing %q:\n%s", want, stdout)
		}
	}
}

func TestModesEndToEndTiny(t *testing.T) {
	tests := []struct {
		mode string
		want string
	}{
		{"memory", "Section 2.1"},
		{"credits", "Section 2.2"},
		{"protocol", "Section 2.3"},
	}
	for _, tt := range tests {
		t.Run(tt.mode, func(t *testing.T) {
			stdout, _, err := runCLI(t, "-mode", tt.mode, "-workload", "bt", "-procs", "4", "-iterations", "2")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(stdout, tt.want) || !strings.Contains(stdout, "bt, 4 procs") {
				t.Errorf("%s output missing headline:\n%s", tt.mode, stdout)
			}
		})
	}
}

// TestTraceReplayMatchesDirectRun exports a trace the way tracegen does
// and checks that replaying it produces exactly the report the simulate-
// in-process path prints for the same configuration.
func TestTraceReplayMatchesDirectRun(t *testing.T) {
	tr, err := workloads.Run(workloads.RunConfig{
		Spec: workloads.Spec{Name: "bt", Procs: 4, Iterations: 2},
		Net:  simnet.DefaultConfig(),
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bt4.mpts")
	if err := tracestore.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"memory", "credits", "protocol"} {
		t.Run(mode, func(t *testing.T) {
			direct, _, err := runCLI(t, "-mode", mode, "-workload", "bt", "-procs", "4", "-iterations", "2", "-seed", "1")
			if err != nil {
				t.Fatal(err)
			}
			replayed, _, err := runCLI(t, "-mode", mode, "-trace", path)
			if err != nil {
				t.Fatal(err)
			}
			if direct != replayed {
				t.Errorf("replay differs from direct run\n--- direct ---\n%s--- replay ---\n%s", direct, replayed)
			}
		})
	}
}

// TestTraceReplayJSONLAlsoAccepted checks format sniffing on the replay
// path.
func TestTraceReplayJSONLAlsoAccepted(t *testing.T) {
	tr, err := workloads.Run(workloads.RunConfig{
		Spec: workloads.Spec{Name: "lu", Procs: 4, Iterations: 1},
		Net:  simnet.DefaultConfig(),
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lu4.jsonl")
	if err := trace.SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	stdout, _, err := runCLI(t, "-mode", "memory", "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, fmt.Sprintf("lu, %d procs", 4)) {
		t.Errorf("JSONL replay output wrong:\n%s", stdout)
	}
}

// TestCacheDirWarmRunSkipsSimulator is the -cache-dir parity contract
// with mpipredict: the first run simulates and persists, the second run
// serves the same configuration from the warm directory with zero
// simulator invocations, and both print identical reports.
func TestCacheDirWarmRunSkipsSimulator(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-mode", "memory", "-workload", "bt", "-procs", "4", "-iterations", "2",
		"-cache-dir", dir, "-cache-stats"}

	cold, coldStats, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldStats, "simulations=1") || !strings.Contains(coldStats, "disk-writes=1") {
		t.Fatalf("cold run should simulate once and persist:\n%s", coldStats)
	}

	warm, warmStats, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warmStats, "simulations=0") || !strings.Contains(warmStats, "disk-hits=1") {
		t.Fatalf("warm run should not simulate:\n%s", warmStats)
	}
	if cold != warm {
		t.Errorf("cached replay differs from direct run\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
}

// TestCacheStatsWithoutCacheDir reports the cache as disabled instead of
// printing misleading zeros.
func TestCacheStatsWithoutCacheDir(t *testing.T) {
	_, stderr, err := runCLI(t, "-mode", "memory", "-workload", "bt", "-procs", "4", "-iterations", "2", "-cache-stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "cache: disabled") {
		t.Errorf("expected a disabled-cache notice, got:\n%s", stderr)
	}
}

// TestTraceRejectsCacheFlags extends the -trace conflict checks to the
// cache flags.
func TestTraceRejectsCacheFlags(t *testing.T) {
	_, _, err := runCLI(t, "-trace", "x.mpts", "-cache-dir", "/tmp/x", "-cache-stats")
	if err == nil || !strings.Contains(err.Error(), "ignored with -trace") {
		t.Fatalf("error = %v, want the -trace conflict", err)
	}
}

// TestStaticSweepRejectsCacheFlags: the sweep never consults the cache,
// so the flags error out like -trace does.
func TestStaticSweepRejectsCacheFlags(t *testing.T) {
	_, _, err := runCLI(t, "-mode", "static-sweep", "-cache-stats")
	if err == nil || !strings.Contains(err.Error(), "static-sweep") {
		t.Fatalf("error = %v, want the static-sweep conflict", err)
	}
}

func TestPredictorFlagValidation(t *testing.T) {
	_, _, err := runCLI(t, "-predictor", "nope")
	if err == nil || !strings.Contains(err.Error(), "unknown -predictor") {
		t.Fatalf("unknown predictor: got %v", err)
	}
	_, _, err = runCLI(t, "-mode", "static-sweep", "-predictor", "dpd")
	if err == nil || !strings.Contains(err.Error(), "ignored by -mode static-sweep") {
		t.Fatalf("static-sweep with predictor: got %v", err)
	}
}

// TestPredictorFlagChangesReplay runs the memory mechanism with the DPD
// and with the lastvalue baseline on the same tiny workload: both succeed
// and report different outcomes, proving the strategy reaches the replay.
func TestPredictorFlagChangesReplay(t *testing.T) {
	args := []string{"-mode", "memory", "-workload", "bt", "-procs", "4", "-iterations", "2"}
	dpd, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	flat, _, err := runCLI(t, append(args, "-predictor", "lastvalue")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flat, "bt") {
		t.Fatalf("missing report body:\n%s", flat)
	}
	if dpd == flat {
		t.Fatal("-predictor lastvalue produced the same buffer report as the DPD")
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-version"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "scalesim ") {
		t.Fatalf("version output = %q", out.String())
	}
}
