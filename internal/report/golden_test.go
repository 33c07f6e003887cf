package report

// Golden-file regression tests for the rendered experiment reports. The
// input is the committed trace corpus (testdata/corpus at the repository
// root), so these tests pin the whole replay half of the pipeline — store
// decode, characterisation, prediction evaluation and text rendering —
// without running the simulator. Regenerate after an intentional change
// with:
//
//	go test ./internal/report -run Golden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mpipredict/internal/evalx"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

var update = flag.Bool("update", false, "regenerate golden files under testdata/")

// corpusFiles lists the corpus in Table 1 order.
var corpusFiles = []string{"bt.4.mpts", "cg.4.mpts", "lu.4.mpts", "is.4.mpts", "sweep3d.6.mpts"}

func loadCorpus(t *testing.T) []*trace.Trace {
	t.Helper()
	traces := make([]*trace.Trace, 0, len(corpusFiles))
	for _, f := range corpusFiles {
		tr, err := trace.Load(filepath.Join("..", "..", "testdata", "corpus", f))
		if err != nil {
			t.Fatalf("loading corpus %s (regenerate with `go test -run TestGoldenCorpus -update .` at the repo root): %v", f, err)
		}
		traces = append(traces, tr)
	}
	return traces
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestTable1GoldenFromCorpus renders Table 1 built purely from the
// committed corpus traces.
func TestTable1GoldenFromCorpus(t *testing.T) {
	var rows []evalx.Table1Row
	for _, tr := range loadCorpus(t) {
		receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, evalx.Table1RowFromTrace(tr, receiver))
	}
	checkGolden(t, "table1_corpus.golden", Table1(rows))
}

// TestFiguresGoldenFromCorpus evaluates prediction accuracy on the corpus
// traces and renders the Figure 3 / Figure 4 reports.
func TestFiguresGoldenFromCorpus(t *testing.T) {
	opts := evalx.Options{NoCache: true}
	var results []evalx.Result
	for _, tr := range loadCorpus(t) {
		receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
		if err != nil {
			t.Fatal(err)
		}
		res, err := evalx.EvaluateTrace(tr, receiver, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	logical, physical := evalx.FiguresFromResults(opts, results)
	checkGolden(t, "figure3_corpus.golden", AccuracyFigure(logical))
	checkGolden(t, "figure4_corpus.golden", AccuracyFigure(physical))
}
