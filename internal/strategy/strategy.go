// Package strategy makes the prediction model a first-class, swappable
// axis of the system. The paper's central claim — DPD-based prediction
// beats simpler schemes on MPI receive streams — is only testable when the
// model family is a parameter rather than a compile-time constant, so this
// package extracts the full per-stream predictor contract behind the
// Strategy interface and keeps a string-keyed registry of implementations:
//
//   - "dpd"       — the paper's Dynamic Periodicity Detector predictor
//     (core.StreamPredictor behind the interface, bit-for-bit identical),
//   - "lastvalue" — predict the most recently observed value for every
//     horizon (the natural floor baseline),
//   - "markov1"   — a first-order transition-frequency predictor over
//     interned values (the classic history-based alternative), and
//   - "meta"      — an adaptive router over every other registered
//     strategy, scored against realized arrivals.
//
// Strategy is the only stream-predictor contract in the system, and every
// layer above core selects its predictor through this registry: the
// evaluation harness (evalx.Options.Strategy), the online service (one
// strategy per session, chosen at first observe), the scalability replays
// (scalability.MessagePredictor pairs a sender and a size strategy) and
// the CLIs' -predictor flags. A strategy serializes its own state to an
// opaque payload (Snapshot/Restore), which is what lets the serving
// snapshot format persist heterogeneous sessions without knowing anything
// about the models inside them.
//
// Implementations must keep the hot path allocation-free: Observe and
// Predict on a trained strategy, and PredictSeriesInto/PredictSetInto with
// reused buffers, perform zero heap allocations in steady state (pinned by
// alloc_test.go through interface dispatch, exactly how every caller uses
// them).
package strategy

import (
	"fmt"
	"sort"

	"mpipredict/internal/core"
)

// Default is the registry name of the paper's predictor. Every layer that
// accepts a strategy name treats the empty string as Default.
const Default = "dpd"

// Desc identifies a strategy instance: the registry name it was created
// under and a human-readable summary of its configuration.
type Desc struct {
	Name   string `json:"name"`
	Config string `json:"config,omitempty"`
}

// String renders the description as "name" or "name(config)".
func (d Desc) String() string {
	if d.Config == "" {
		return d.Name
	}
	return d.Name + "(" + d.Config + ")"
}

// Strategy is an online, single-stream value predictor with serializable
// state. It is the contract the DPD core already satisfied implicitly;
// extracting it lets every layer treat the model as data.
type Strategy interface {
	// Desc describes the strategy (registry name + config summary).
	Desc() Desc
	// Observe feeds the next observed value of the stream.
	Observe(x int64)
	// Predict returns the value expected k observations ahead (k >= 1).
	// ok is false when the strategy abstains.
	Predict(k int) (value int64, ok bool)
	// PredictSeriesInto appends the next count predictions to dst and
	// returns it; callers reuse dst[:0] across calls on the hot path.
	PredictSeriesInto(dst []core.Prediction, count int) []core.Prediction
	// PredictSetInto appends the next-count value multiset to dst, with
	// ok false when any underlying prediction abstains (the partially
	// filled buffer is still returned so callers keep its capacity).
	PredictSetInto(dst []int64, count int) ([]int64, bool)
	// Snapshot serializes the complete strategy state to an opaque,
	// deterministic payload: equal states produce equal bytes, which is
	// what makes serving snapshot files byte-stable across restarts.
	Snapshot() []byte
	// Restore replaces the strategy's state with a payload previously
	// produced by Snapshot (of the same strategy kind). The payload is
	// validated in full; on error the strategy is unchanged.
	Restore(payload []byte) error
	// Reset returns the strategy to its initial, untrained state.
	Reset()
}

// StateReporter is implemented by strategies with a notion of a discrete
// predictor state (the DPD's learning/locked). Introspection surfaces
// (e.g. the serving API's session listing) use it when present.
type StateReporter interface {
	PredictorState() string
}

// PeriodReporter is implemented by strategies that expose a detected
// pattern length.
type PeriodReporter interface {
	PredictorPeriod() (int, bool)
}

// Factory builds a fresh strategy. The core configuration parameterizes
// the DPD; strategies without tunables ignore it.
type Factory func(cfg core.Config) Strategy

var registry = map[string]Factory{}

// Register adds a named strategy factory. It panics on duplicates, which
// indicates a programming error during init.
func Register(name string, f Factory) {
	if name == "" {
		panic("strategy: Register with an empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("strategy: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Known reports whether name is a registered strategy.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names returns the registered strategy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New creates a strategy by registered name. The empty name selects
// Default.
func New(name string, cfg core.Config) (Strategy, error) {
	if name == "" {
		name = Default
	}
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("strategy: unknown strategy %q (known: %v)", name, Names())
	}
	return f(cfg), nil
}

// Restore creates a strategy by name and loads a Snapshot payload into it,
// validating the payload in full. It is how the serving layer rebuilds
// heterogeneous sessions from checkpoint files.
func Restore(name string, payload []byte) (Strategy, error) {
	s, err := New(name, core.Config{})
	if err != nil {
		return nil, err
	}
	if err := s.Restore(payload); err != nil {
		return nil, fmt.Errorf("strategy: restoring %q state: %w", name, err)
	}
	return s, nil
}

func init() {
	Register("dpd", func(cfg core.Config) Strategy { return NewDPD(cfg) })
	Register("lastvalue", func(core.Config) Strategy { return NewLastValue() })
	Register("markov1", func(core.Config) Strategy { return NewMarkov1() })
	Register(MetaName, func(cfg core.Config) Strategy {
		m, err := NewMeta(cfg, nil)
		if err != nil {
			// Unreachable: the default expert set is every other
			// registered strategy, which is non-empty and valid.
			panic(fmt.Sprintf("strategy: building default meta: %v", err))
		}
		return m
	})
}

// seriesInto is the shared PredictSeriesInto body: strategies whose
// Predict is the source of truth delegate to it.
func seriesInto(s Strategy, dst []core.Prediction, count int) []core.Prediction {
	for k := 1; k <= count; k++ {
		v, ok := s.Predict(k)
		dst = append(dst, core.Prediction{Ahead: k, Value: v, OK: ok})
	}
	return dst
}

// setInto is the shared PredictSetInto body.
func setInto(s Strategy, dst []int64, count int) ([]int64, bool) {
	for k := 1; k <= count; k++ {
		v, ok := s.Predict(k)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
	}
	return dst, true
}
