package simmpi

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mpipredict/internal/simnet"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
)

// ringProgram is a tiny SPMD program: every rank sends to its right
// neighbour and receives from its left, a few thousand times so the run
// spans several blocks.
func ringProgram(rounds int) Program {
	return func(r *Rank) {
		procs := r.Size()
		left := (r.ID() + procs - 1) % procs
		right := (r.ID() + 1) % procs
		for i := 0; i < rounds; i++ {
			r.Send(right, 0, 64)
			r.Recv(left, 0)
		}
	}
}

// TestRunStreamMatchesRun pins the streaming emission: a sink fed by
// RunStream receives the exact record sequence Run stores in the trace.
func TestRunStreamMatchesRun(t *testing.T) {
	cfg := Config{App: "ring", Procs: 4, Seed: 3, Net: simnet.DefaultConfig()}
	want, err := Run(cfg, ringProgram(700)) // ~2800 events per level, > 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 2*stream.BlockLen {
		t.Fatalf("test run too small to cross a block boundary: %d records", want.Len())
	}

	got := trace.New(cfg.App, cfg.Procs)
	if err := RunToSink(cfg, ringProgram(700), collector{got}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Error("streamed records differ from the trace Run builds")
	}

	// And through the store encoder the two paths are byte-identical.
	var inMemory, streamed bytes.Buffer
	if err := tracestore.WriteTrace(&inMemory, want); err != nil {
		t.Fatal(err)
	}
	w, err := tracestore.NewWriter(&streamed, cfg.App, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunToSink(cfg, ringProgram(700), stream.SinkTo(w)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inMemory.Bytes(), streamed.Bytes()) {
		t.Error("streamed export differs byte-for-byte from the in-memory export")
	}
}

// collector appends every block's records to a trace.
type collector struct{ tr *trace.Trace }

func (c collector) Write(b *stream.EventBlock) error {
	for i := 0; i < b.Len(); i++ {
		c.tr.Append(b.Record(i))
	}
	return nil
}

// TestRunStreamPropagatesSinkError pins that a failing sink surfaces as
// the run error instead of being swallowed mid-simulation.
func TestRunStreamPropagatesSinkError(t *testing.T) {
	cfg := Config{App: "ring", Procs: 4, Seed: 3, Net: simnet.DefaultConfig()}
	wantErr := fmt.Errorf("disk full")
	err := RunToSink(cfg, ringProgram(700), failingSink{wantErr})
	if err == nil || err.Error() != wantErr.Error() {
		t.Errorf("RunToSink error = %v, want %v", err, wantErr)
	}
}

type failingSink struct{ err error }

func (f failingSink) Write(*stream.EventBlock) error { return f.err }
