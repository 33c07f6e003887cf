package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpipredict/internal/trace"
)

// storeCorpus points at a committed columnar corpus file.
func storeCorpus(file string) string {
	return filepath.Join("..", "..", "testdata", "corpus", file)
}

func TestScanFlagValidation(t *testing.T) {
	mpts := storeCorpus("cg.4.mpts")
	for _, tt := range []struct {
		name string
		args []string
		want string
	}{
		{name: "scan requires -trace",
			args: []string{"-experiment", "scan"},
			want: "point -trace at a .mpts file"},
		{name: "-scan outside the scan experiment",
			args: []string{"-experiment", "table1", "-scan", "windows"},
			want: "only affect -experiment scan"},
		{name: "-topk outside the scan experiment",
			args: []string{"-experiment", "compare", "-topk", "3"},
			want: "only affect -experiment scan"},
		{name: "-level outside the scan experiment",
			args: []string{"-trace", mpts, "-experiment", "table1", "-level", "physical"},
			want: "only affect -experiment scan"},
		{name: "-predictor has no effect on scan",
			args: []string{"-trace", mpts, "-experiment", "scan", "-predictor", "dpd"},
			want: "-predictor has no effect"},
		{name: "unknown query",
			args: []string{"-trace", mpts, "-experiment", "scan", "-scan", "everything"},
			want: "unknown -scan"},
		{name: "bad level",
			args: []string{"-trace", mpts, "-experiment", "scan", "-level", "quantum"},
			want: "quantum"},
		{name: "bad topk",
			args: []string{"-trace", mpts, "-experiment", "scan", "-topk", "0"},
			want: "-topk must be at least 1"},
		{name: "phases need two windows",
			args: []string{"-trace", mpts, "-experiment", "scan", "-scan", "phases", "-windows", "1"},
			want: "-windows must be at least 2"},
		{name: "cache flags stay rejected with -trace scan",
			args: []string{"-trace", mpts, "-experiment", "scan", "-cache-dir", "/tmp/x"},
			want: "ignored with -trace"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := runCLI(t, tt.args...)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("got %v, want error containing %q", err, tt.want)
			}
		})
	}
}

// TestScanRejectsFlatTrace checks the helpful hint when -experiment scan
// is pointed at a JSONL trace instead of a columnar store.
func TestScanRejectsFlatTrace(t *testing.T) {
	tr, err := trace.Load(storeCorpus("cg.4.mpts"))
	if err != nil {
		t.Fatal(err)
	}
	jsonl := filepath.Join(t.TempDir(), "cg.4.jsonl")
	if err := trace.SaveFile(jsonl, tr); err != nil {
		t.Fatal(err)
	}
	_, _, err = runCLI(t, "-trace", jsonl, "-experiment", "scan")
	if err == nil || !strings.Contains(err.Error(), "tracegen -o file.mpts") {
		t.Fatalf("scan over JSONL: got %v, want the .mpts export hint", err)
	}
}

// TestScanGolden pins every scan query in both renderings against golden
// files (regenerate with -update), driven by the committed columnar
// corpus so the output is fully deterministic.
func TestScanGolden(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
	}{
		{name: "top_senders_table", args: []string{"-scan", "top-senders", "-topk", "3"}},
		{name: "top_senders_csv", args: []string{"-scan", "top-senders", "-topk", "3", "-format", "csv"}},
		{name: "windows_table", args: []string{"-scan", "windows", "-windows", "4"}},
		{name: "windows_csv", args: []string{"-scan", "windows", "-windows", "4", "-format", "csv"}},
		{name: "phases_table", args: []string{"-scan", "phases", "-windows", "4", "-level", "physical"}},
		{name: "phases_csv", args: []string{"-scan", "phases", "-windows", "4", "-format", "csv"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			args := append([]string{"-trace", storeCorpus("sweep3d.6.mpts"), "-experiment", "scan"}, tt.args...)
			stdout, stderr, err := runCLI(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(stderr, "scan: ") {
				t.Errorf("stderr %q is missing the scan-stats line", stderr)
			}
			golden := filepath.Join("testdata", "scan_"+tt.name+".golden")
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
				t.Errorf("scan output drifted from the golden file\n--- got ---\n%s--- want ---\n%s", stdout, want)
			}
		})
	}
}

// TestScanOutputIndependentOfParallelism runs each query at -parallel
// 1/2/8 and requires byte-identical stdout: the CLI-level restatement of
// the scan engine's determinism guarantee.
func TestScanOutputIndependentOfParallelism(t *testing.T) {
	for _, query := range []string{"top-senders", "windows", "phases"} {
		t.Run(query, func(t *testing.T) {
			var base string
			for i, workers := range []string{"1", "2", "8"} {
				stdout, _, err := runCLI(t, "-trace", storeCorpus("lu.4.mpts"), "-experiment", "scan",
					"-scan", query, "-parallel", workers)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					base = stdout
				} else if stdout != base {
					t.Errorf("-parallel %s output differs from -parallel 1", workers)
				}
			}
		})
	}
}
