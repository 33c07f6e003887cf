package mpipredict

// The .mpts parity suite: a committed store is an on-disk representation
// of the exact event stream the simulator produced, and this file pins
// the property everything downstream relies on — evaluating the store is
// hit-for-hit indistinguishable from evaluating the simulation it was
// exported from. Every corpus workload × every registered strategy runs
// EvaluateSource over the .mpts file and over the simulator's in-memory
// trace and requires deep equality of the full result (hits, misses,
// per-horizon accuracy, reordering diagnostics — all of it), plus Table 1
// characterisation equality.

import (
	"reflect"
	"testing"

	"mpipredict/internal/evalx"
	"mpipredict/internal/strategy"
	"mpipredict/internal/stream"
	"mpipredict/internal/workloads"
)

// corpusReplayReceiver picks the receiver a CLI replay of the file would
// evaluate.
func corpusReplayReceiver(t *testing.T, path string) int {
	t.Helper()
	src, err := stream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md, _ := stream.MetaOf(src)
	receivers, err := stream.Receivers(src)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := workloads.PickReplayReceiver(md.App, md.Procs, receivers)
	if err != nil {
		t.Fatal(err)
	}
	return receiver
}

func TestStoreEvaluateSourceParityFullCorpus(t *testing.T) {
	for _, c := range corpusSpecs() {
		t.Run(c.File, func(t *testing.T) {
			path := corpusPath(c.File)
			sim := simulateCorpusTrace(t, c)
			simulated := func() (stream.Source, error) { return stream.TraceSource(sim), nil }
			recv := corpusReplayReceiver(t, path)
			if simRecv, err := workloads.PickReplayReceiver(sim.App, sim.Procs, sim.Receivers()); err != nil || simRecv != recv {
				t.Fatalf("replay receiver: store %d, simulation %d (%v)", recv, simRecv, err)
			}

			row, err := evalx.Table1RowFromSource(simulated, recv)
			if err != nil {
				t.Fatal(err)
			}
			storeRow, err := evalx.Table1RowFromSource(stream.FileOpener(path), recv)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(row, storeRow) {
				t.Errorf("Table1 characterisation differs from the simulation:\nsimulated %+v\n.mpts     %+v", row, storeRow)
			}

			for _, name := range strategy.Names() {
				opts := evalx.Options{Strategy: name}
				res, err := evalx.EvaluateSource(simulated, recv, opts)
				if err != nil {
					t.Fatalf("%s over the simulation: %v", name, err)
				}
				storeRes, err := evalx.EvaluateSource(stream.FileOpener(path), recv, opts)
				if err != nil {
					t.Fatalf("%s over .mpts: %v", name, err)
				}
				if !reflect.DeepEqual(res, storeRes) {
					t.Errorf("strategy %s: EvaluateSource over .mpts differs from the simulation", name)
				}
			}
		})
	}
}
