package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mpipredict/internal/evalx"
	"mpipredict/internal/report"
	"mpipredict/internal/simnet"
	"mpipredict/internal/strategy"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/workloads"
)

var update = flag.Bool("update", false, "regenerate golden files under testdata/")

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
		{name: "positional args rejected", args: []string{"table1"}, wantErr: "unexpected arguments"},
		{name: "unknown experiment", args: []string{"-experiment", "table9"}, wantErr: `unknown experiment "table9"`},
		{name: "nocache and cache-dir conflict", args: []string{"-nocache", "-cache-dir", "/tmp/x"}, wantErr: "mutually exclusive"},
		{name: "missing trace file", args: []string{"-trace", "/no/such/file.mpts"}, wantErr: "no such file"},
		{name: "trace with unsupported experiment", args: []string{"-trace", "x.mpts", "-experiment", "figure1"}, wantErr: ""},
		{name: "trace rejects seed", args: []string{"-trace", "x.mpts", "-seed", "7"}, wantErr: "ignored with -trace"},
		{name: "trace rejects iterations and cache-dir", args: []string{"-trace", "x.mpts", "-iterations", "2", "-cache-dir", "/tmp/x"}, wantErr: "ignored with -trace"},
		{name: "trace rejects cache-stats", args: []string{"-trace", "x.mpts", "-cache-stats"}, wantErr: "ignored with -trace"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := runCLI(t, tt.args...)
			if err == nil {
				t.Fatal("expected an error")
			}
			if tt.wantErr != "" && !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tt.wantErr)
			}
		})
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	// main() exits 0 on flag.ErrHelp; run() must surface it unchanged.
	_, stderr, err := runCLI(t, "-h")
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr, "-experiment") {
		t.Errorf("usage text missing from -h output:\n%s", stderr)
	}
}

func TestReplayRejectsNonReplayableExperiments(t *testing.T) {
	path := exportTestTrace(t, "bt", 4, 2, 1)
	for _, exp := range []string{"figure1", "figure2"} {
		_, _, err := runCLI(t, "-trace", path, "-experiment", exp)
		if err == nil || !strings.Contains(err.Error(), "cannot replay") {
			t.Errorf("experiment %s with -trace: error = %v, want 'cannot replay'", exp, err)
		}
	}
}

// exportTestTrace simulates one tiny configuration and saves it as a
// columnar store, mirroring what `tracegen -o` produces.
func exportTestTrace(t *testing.T, app string, procs, iterations int, seed int64) string {
	t.Helper()
	tr, err := workloads.Run(workloads.RunConfig{
		Spec: workloads.Spec{Name: app, Procs: procs, Iterations: iterations},
		Net:  simnet.DefaultConfig(),
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("%s.%d.mpts", app, procs))
	if err := tracestore.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayMatchesInMemoryPathExactly is the acceptance test of the
// persistent trace subsystem: an exported trace replayed through
// `mpipredict -trace` must reproduce the Table 1 numbers of the in-memory
// simulation path byte-identically.
func TestReplayMatchesInMemoryPathExactly(t *testing.T) {
	const (
		app   = "bt"
		procs = 4
		iters = 2
		seed  = int64(1)
	)
	path := exportTestTrace(t, app, procs, iters, seed)
	replayOut, _, err := runCLI(t, "-trace", path, "-experiment", "table1")
	if err != nil {
		t.Fatal(err)
	}

	// The in-memory path: simulate the same configuration (no disk in
	// sight) and render the same report.
	receiver, err := workloads.TypicalReceiver(app, procs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workloads.Run(workloads.RunConfig{
		Spec:           workloads.Spec{Name: app, Procs: procs, Iterations: iters},
		Net:            simnet.DefaultConfig(),
		Seed:           seed,
		TraceReceivers: []int{receiver},
	})
	if err != nil {
		t.Fatal(err)
	}
	inMemory := report.Table1([]evalx.Table1Row{evalx.Table1RowFromTrace(tr, receiver)}) + "\n"
	if replayOut != inMemory {
		t.Errorf("replayed Table 1 differs from the in-memory simulation path\n--- replay ---\n%s--- in-memory ---\n%s", replayOut, inMemory)
	}
}

// TestReplayGoldenFromCorpus replays the committed corpus trace and pins
// the full CLI output (Table 1 + Figures 3/4) against a golden file.
func TestReplayGoldenFromCorpus(t *testing.T) {
	corpus := filepath.Join("..", "..", "testdata", "corpus", "bt.4.mpts")
	stdout, _, err := runCLI(t, "-trace", corpus, "-experiment", "all")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "replay_bt4_all.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if stdout != string(want) {
		t.Errorf("replay output drifted from the golden file\n--- got ---\n%s--- want ---\n%s", stdout, want)
	}
}

// cacheStatLine extracts the "cache: ..." line printed by -cache-stats.
func cacheStatLine(t *testing.T, stderr string) string {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "cache:") {
			return line
		}
	}
	t.Fatalf("no cache stats line in stderr:\n%s", stderr)
	return ""
}

func statValue(t *testing.T, line, field string) int {
	t.Helper()
	m := regexp.MustCompile(field + `=(\d+)`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("field %s missing from %q", field, line)
	}
	var v int
	fmt.Sscanf(m[1], "%d", &v)
	return v
}

// TestWarmDiskCacheNeedsZeroSimulations is the second acceptance test: a
// Table 1 run against a warm cache directory must not invoke the
// simulator at all. Each CLI invocation builds a fresh memory tier, so
// two runs in one process exercise the disk tier exactly as two separate
// processes would.
func TestWarmDiskCacheNeedsZeroSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full (shrunk) experiment grid twice")
	}
	dir := t.TempDir()
	grid := len(workloads.PaperSpecs())

	_, stderr1, err := runCLI(t, "-experiment", "table1", "-iterations", "2", "-cache-dir", dir, "-cache-stats")
	if err != nil {
		t.Fatal(err)
	}
	cold := cacheStatLine(t, stderr1)
	if sims := statValue(t, cold, "simulations"); sims != grid {
		t.Errorf("cold run: simulations=%d, want %d (one per grid cell)", sims, grid)
	}
	if writes := statValue(t, cold, "disk-writes"); writes != grid {
		t.Errorf("cold run: disk-writes=%d, want %d", writes, grid)
	}

	out2, stderr2, err := runCLI(t, "-experiment", "table1", "-iterations", "2", "-cache-dir", dir, "-cache-stats")
	if err != nil {
		t.Fatal(err)
	}
	warm := cacheStatLine(t, stderr2)
	if sims := statValue(t, warm, "simulations"); sims != 0 {
		t.Errorf("warm run: simulations=%d, want 0 (everything served from disk)", sims)
	}
	if hits := statValue(t, warm, "disk-hits"); hits != grid {
		t.Errorf("warm run: disk-hits=%d, want %d", hits, grid)
	}
	if blocks := statValue(t, warm, "store-blocks"); blocks == 0 {
		t.Error("warm run: store-blocks=0, want the store reads of the promoted entries")
	}

	// And the warm run's report must be identical to a cache-free one.
	out3, _, err := runCLI(t, "-experiment", "table1", "-iterations", "2", "-nocache")
	if err != nil {
		t.Fatal(err)
	}
	if out2 != out3 {
		t.Errorf("disk-cached Table 1 differs from the uncached one\n--- cached ---\n%s--- uncached ---\n%s", out2, out3)
	}
}

// TestExperimentsSmokeTiny drives every experiment end-to-end on a shrunk
// grid — the first tests cmd/mpipredict has ever had.
func TestExperimentsSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full (shrunk) experiment grid")
	}
	tests := []struct {
		experiment string
		wants      []string
	}{
		{"table1", []string{"Table 1", "bt", "cg", "lu", "is", "sweep3d"}},
		{"figure1", []string{"Figure 1", "period"}},
		{"figure2", []string{"Figure 2", "logical:", "physical:"}},
		{"figure3", []string{"Figure 3", "sender", "size"}},
		{"figure4", []string{"Figure 4", "sender", "size"}},
	}
	for _, tt := range tests {
		t.Run(tt.experiment, func(t *testing.T) {
			stdout, _, err := runCLI(t, "-experiment", tt.experiment, "-iterations", "2", "-seed", "3")
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range tt.wants {
				if !strings.Contains(stdout, want) {
					t.Errorf("%s output missing %q:\n%s", tt.experiment, want, stdout)
				}
			}
		})
	}
}

func TestPredictorFlagValidation(t *testing.T) {
	_, _, err := runCLI(t, "-predictor", "nope")
	if err == nil || !strings.Contains(err.Error(), "unknown -predictor") {
		t.Fatalf("unknown predictor: got %v", err)
	}
	_, _, err = runCLI(t, "-experiment", "compare", "-predictor", "dpd")
	if err == nil || !strings.Contains(err.Error(), "no effect on -experiment compare") {
		t.Fatalf("compare with predictor: got %v", err)
	}
	// Strategy-independent experiments reject the flag instead of
	// silently ignoring it.
	for _, exp := range []string{"table1", "figure1", "figure2"} {
		_, _, err = runCLI(t, "-experiment", exp, "-predictor", "lastvalue")
		if err == nil || !strings.Contains(err.Error(), "no effect on -experiment "+exp) {
			t.Fatalf("%s with predictor: got %v", exp, err)
		}
	}
}

// TestFigure3PredictorSelectsStrategy runs the tiny figure3 once with the
// default DPD and once with the lastvalue baseline: both must succeed and
// produce different accuracy tables (the flag demonstrably reaches the
// evaluation).
func TestFigure3PredictorSelectsStrategy(t *testing.T) {
	dpd, _, err := runCLI(t, "-experiment", "figure3", "-iterations", "2")
	if err != nil {
		t.Fatal(err)
	}
	flat, _, err := runCLI(t, "-experiment", "figure3", "-iterations", "2", "-predictor", "lastvalue")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flat, "Figure 3") {
		t.Fatalf("missing figure header:\n%s", flat)
	}
	if dpd == flat {
		t.Fatal("-predictor lastvalue produced the same figure as the DPD")
	}
}

// TestCompareExperimentTiny smokes the strategy comparison end to end.
func TestCompareExperimentTiny(t *testing.T) {
	out, _, err := runCLI(t, "-experiment", "compare", "-iterations", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range append([]string{"Strategy comparison"}, strategy.Names()...) {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison output misses %q:\n%s", want, out)
		}
	}
	for _, app := range []string{"bt", "cg", "lu", "is", "sweep3d"} {
		if !strings.Contains(out, app) {
			t.Fatalf("comparison output misses workload %q:\n%s", app, out)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-version"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "mpipredict ") {
		t.Fatalf("version output = %q", out.String())
	}
}
