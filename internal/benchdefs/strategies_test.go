package benchdefs

import (
	"testing"

	"mpipredict/internal/strategy"
)

// TestStrategyBenchEnv sanity-checks the per-strategy benchmark bodies:
// every registered strategy warms, observes and answers the +1..+5 query
// (the properties the benchmark loops assume), and unknown names error.
func TestStrategyBenchEnv(t *testing.T) {
	for _, name := range strategy.Names() {
		env, err := NewStrategyBenchEnv(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 3*ServeBenchPeriod; i++ {
			env.Observe()
		}
		if err := env.Predict(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := NewStrategyBenchEnv("no-such-strategy"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestCoreBenchEnv sanity-checks the core layer benchmark bodies: each
// layer warms into the state it measures and stays there across a full
// pass over its stream, and unknown layers error.
func TestCoreBenchEnv(t *testing.T) {
	for _, layer := range CoreBenchLayers {
		env, err := NewCoreBenchEnv(layer)
		if err != nil {
			t.Fatalf("%s: %v", layer, err)
		}
		for range env.stream {
			env.Observe()
		}
		if err := env.Check(); err != nil {
			t.Error(err)
		}
	}
	if _, err := NewCoreBenchEnv("no-such-layer"); err == nil {
		t.Fatal("unknown core layer accepted")
	}
}
