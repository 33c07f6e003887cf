package mpipredict

// The golden trace corpus. testdata/corpus holds one tiny exported trace
// per workload (columnar .mpts store, two iterations, seed 1, default
// noisy network, the typical receiver traced). The corpus plays two roles:
//
//   - it pins the simulator byte-for-byte across PRs: any change to a
//     workload skeleton, the network model, the seeding discipline or the
//     codec that alters these files is caught here and must be a conscious
//     decision (run `go test -run TestGoldenCorpus -update ./...` and
//     commit the new files), and
//   - it is the fixture set for the golden-file regression tests of the
//     report output (internal/report) and the CLI replay tests (cmd/...):
//     those tests consume these files instead of simulating.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/workloads"
)

var updateCorpus = flag.Bool("update", false, "regenerate golden files under testdata/")

// corpusSpec describes one committed trace.
type corpusSpec struct {
	File       string
	App        string
	Procs      int
	Iterations int
	Seed       int64
}

// corpusSpecs lists the committed corpus. One workload each, smallest
// paper process count, two iterations: big enough to exercise every
// communication pattern, small enough to keep the repository light.
func corpusSpecs() []corpusSpec {
	return []corpusSpec{
		{File: "bt.4.mpts", App: "bt", Procs: 4, Iterations: 2, Seed: 1},
		{File: "cg.4.mpts", App: "cg", Procs: 4, Iterations: 2, Seed: 1},
		{File: "lu.4.mpts", App: "lu", Procs: 4, Iterations: 2, Seed: 1},
		{File: "is.4.mpts", App: "is", Procs: 4, Iterations: 2, Seed: 1},
		{File: "sweep3d.6.mpts", App: "sweep3d", Procs: 6, Iterations: 2, Seed: 1},
	}
}

// simulateCorpusTrace reproduces the simulation a corpus file was exported
// from.
func simulateCorpusTrace(t *testing.T, c corpusSpec) *trace.Trace {
	t.Helper()
	tr, err := workloads.Run(workloads.RunConfig{
		Spec: workloads.Spec{Name: c.App, Procs: c.Procs, Iterations: c.Iterations},
		Net:  simnet.DefaultConfig(),
		Seed: c.Seed,
	})
	if err != nil {
		t.Fatalf("%s: simulating: %v", c.File, err)
	}
	return tr
}

func corpusPath(file string) string {
	return filepath.Join("testdata", "corpus", file)
}

// TestGoldenCorpusStorePinned re-simulates every corpus configuration and
// requires the store encoding to match the committed file exactly. The
// parity suite (store_parity_test.go) and FuzzStoreCodec consume these
// files.
func TestGoldenCorpusStorePinned(t *testing.T) {
	for _, c := range corpusSpecs() {
		t.Run(c.File, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tracestore.WriteTrace(&buf, simulateCorpusTrace(t, c)); err != nil {
				t.Fatal(err)
			}
			path := corpusPath(c.File)
			if *updateCorpus {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing corpus file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("simulator or store codec output for %s drifted from the committed corpus (%d vs %d bytes).\n"+
					"If the change is intentional, regenerate with: go test -run TestGoldenCorpus -update .",
					c.File, len(want), buf.Len())
			}
		})
	}
}

// TestGoldenCorpusReplaysExactly decodes every corpus file and checks the
// records equal a fresh simulation — the decode side of the pin, and the
// property the CLI replay path relies on: evaluating a loaded corpus trace
// is indistinguishable from evaluating the simulation it came from.
func TestGoldenCorpusReplaysExactly(t *testing.T) {
	if *updateCorpus {
		t.Skip("corpus being regenerated")
	}
	for _, c := range corpusSpecs() {
		t.Run(c.File, func(t *testing.T) {
			loaded, err := trace.Load(corpusPath(c.File))
			if err != nil {
				t.Fatal(err)
			}
			direct := simulateCorpusTrace(t, c)
			if loaded.App != direct.App || loaded.Procs != direct.Procs {
				t.Fatalf("metadata: loaded %s.%d, simulated %s.%d", loaded.App, loaded.Procs, direct.App, direct.Procs)
			}
			if !reflect.DeepEqual(loaded.Records, direct.Records) {
				t.Error("decoded corpus records differ from a fresh simulation")
			}
		})
	}
}
