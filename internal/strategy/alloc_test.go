package strategy

import (
	"runtime"
	"testing"

	"mpipredict/internal/core"
)

// warmed returns each registered strategy behind the interface, trained
// past any learning transient on a periodic stream — the steady state the
// serving and evaluation hot paths run in. The predictors are exercised
// through the Strategy interface exactly as every caller dispatches them,
// so these tests pin the interface-dispatched hot path, not the concrete
// types.
func warmed(t testing.TB, name string) Strategy {
	t.Helper()
	s, err := New(name, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 4 * core.DefaultConfig().WindowSize
	for i := 0; i < n; i++ {
		s.Observe(int64(i % 18))
	}
	return s
}

// TestStrategyObserveZeroAllocs pins the steady-state observe cost of
// every registered strategy through interface dispatch: the inversion that
// made the model swappable must not cost the hot path its 0 allocs/op
// guarantee.
func TestStrategyObserveZeroAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := warmed(t, name)
			i := 4 * core.DefaultConfig().WindowSize
			allocs := testing.AllocsPerRun(1000, func() {
				s.Observe(int64(i % 18))
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: Observe allocates %.2f objects per call, want 0", name, allocs)
			}
		})
	}
}

// TestStrategyPredictZeroAllocs pins the point-query path.
func TestStrategyPredictZeroAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := warmed(t, name)
			allocs := testing.AllocsPerRun(1000, func() {
				for k := 1; k <= 5; k++ {
					s.Predict(k)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: Predict allocates %.2f objects per call, want 0", name, allocs)
			}
		})
	}
}

// TestStrategyPredictSeriesIntoZeroAllocs pins the buffer-reuse contract
// of the multi-step query through the interface.
func TestStrategyPredictSeriesIntoZeroAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := warmed(t, name)
			buf := make([]core.Prediction, 0, 5)
			allocs := testing.AllocsPerRun(1000, func() {
				buf = s.PredictSeriesInto(buf[:0], 5)
			})
			if allocs != 0 {
				t.Errorf("%s: PredictSeriesInto allocates %.2f objects per call, want 0", name, allocs)
			}
			if len(buf) != 5 {
				t.Fatalf("%s: got %d predictions, want 5", name, len(buf))
			}
		})
	}
}

// TestStrategyPredictSetIntoZeroAllocs does the same for the order-free
// query.
func TestStrategyPredictSetIntoZeroAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := warmed(t, name)
			buf := make([]int64, 0, 5)
			allocs := testing.AllocsPerRun(1000, func() {
				buf, _ = s.PredictSetInto(buf[:0], 5)
			})
			if allocs != 0 {
				t.Errorf("%s: PredictSetInto allocates %.2f objects per call, want 0", name, allocs)
			}
		})
	}
}

// TestWarmedStrategyMemoryBudget pins the heap a warmed session strategy
// costs: TotalAlloc per instance over 32 instances trained by warmed. A
// serving session holds two (sender, size), and a registry up to 65536
// sessions, so a per-instance regression multiplies. Measured with go1.24
// on linux/amd64: 4726 bytes for markov1 and 15678 for meta (up to 4758
// and 16026 under -race); the budgets leave about 30% and 17% slack.
func TestWarmedStrategyMemoryBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget uint64
	}{
		{"markov1", 6 << 10},
		{"meta", 18 << 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 32
			held := make([]Strategy, n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range held {
				held[i] = warmed(t, c.name)
			}
			runtime.ReadMemStats(&after)
			perInstance := (after.TotalAlloc - before.TotalAlloc) / n
			t.Logf("%d bytes per warmed %s instance", perInstance, c.name)
			if perInstance > c.budget {
				t.Errorf("a warmed %s instance allocated %d bytes, budget %d", c.name, perInstance, c.budget)
			}
			runtime.KeepAlive(held)
		})
	}
}
