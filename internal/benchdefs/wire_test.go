package benchdefs

// Smoke the wire benchmark environment the same way serve_bench_test.go
// smokes the HTTP bodies: everything benchjson records must run clean
// under `go test`, with a test naming what broke when it does not.

import "testing"

func TestWireBenchEnvBodiesRun(t *testing.T) {
	env, err := NewWireBenchEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	before := observedEvents(env)
	blocks := 3 * 64 / ServeBenchBatch
	for i := 0; i < blocks; i++ {
		if err := env.ObserveBlockWire(); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.FlushObserves(); err != nil {
		t.Fatal(err)
	}
	got := observedEvents(env) - before
	if got != int64(blocks*ServeBenchBatch) {
		t.Fatalf("wire observe delivered %d events, want %d", got, blocks*ServeBenchBatch)
	}

	// More predict calls than the pipeline depth, so the steady state
	// (one send, one receive per call) is exercised, not just the fill.
	for i := 0; i < wirePredictDepth+8; i++ {
		if err := env.PredictWire(); err != nil {
			t.Fatal(err)
		}
	}

	// The markov1 HTTP twin the snapshots compare against must run too.
	twin := NewServeBenchEnvFor(WireBenchStrategy)
	if err := twin.ObserveBlockHTTP(0); err != nil {
		t.Fatal(err)
	}
	if err := twin.PredictHTTP(); err != nil {
		t.Fatal(err)
	}
}

// observedEvents is the number of events the environment's sessions have
// observed.
func observedEvents(env *WireBenchEnv) int64 {
	var n int64
	for _, s := range env.Registry.Sessions() {
		n += s.Observed
	}
	return n
}
