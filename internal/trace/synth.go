package trace

import "math/rand"

// SynthConfig describes a synthetic periodic message stream used in tests,
// examples and micro-benchmarks when a full workload simulation is not
// needed. It produces the same kind of data the simulated runtime emits:
// a logical stream that repeats a fixed (sender, size) pattern and a
// physical stream that is the logical one perturbed by local reorderings.
type SynthConfig struct {
	// App and Procs fill the trace metadata.
	App   string
	Procs int
	// Receiver is the rank the synthetic messages are delivered to.
	Receiver int
	// Pattern is the repeating sequence of (sender, size) pairs.
	Pattern []SynthMessage
	// Events is the per-level event count: the pattern repeats, the last
	// repetition truncated, to exactly this many events, so callers size a
	// stream directly (tracegen -events N).
	Events int
	// SwapProbability is the per-position probability that a physical
	// message swaps places with its successor, emulating the arrival-order
	// randomness of Figure 2. Zero produces identical streams.
	SwapProbability float64
	// Seed drives the perturbation; runs are reproducible for a fixed
	// seed.
	Seed int64
}

// SynthMessage is one element of a synthetic pattern.
type SynthMessage struct {
	Sender int
	Size   int64
}

// Synthesize builds a trace from the configuration. The logical stream is
// the exact repetition of the pattern; the physical stream applies random
// adjacent swaps.
func Synthesize(cfg SynthConfig) *Trace {
	t := New(cfg.App, cfg.Procs)
	n := max(cfg.Events, 0)
	if len(cfg.Pattern) == 0 {
		// Nothing to repeat: Events cannot conjure messages out of an
		// empty pattern (SynthSource applies the same rule).
		n = 0
	}
	msgs := make([]SynthMessage, 0, n)
	for i := 0; i < n; i++ {
		msgs = append(msgs, cfg.Pattern[i%len(cfg.Pattern)])
	}
	for i, m := range msgs {
		t.Append(Record{
			Time:     float64(i),
			Receiver: cfg.Receiver,
			Sender:   m.Sender,
			Size:     m.Size,
			Kind:     PointToPoint,
			Op:       "send",
			Level:    Logical,
		})
	}
	phys := make([]SynthMessage, len(msgs))
	copy(phys, msgs)
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.SwapProbability > 0 {
		for i := 0; i+1 < len(phys); i++ {
			if rng.Float64() < cfg.SwapProbability {
				phys[i], phys[i+1] = phys[i+1], phys[i]
			}
		}
	}
	for i, m := range phys {
		t.Append(Record{
			Time:     float64(i),
			Receiver: cfg.Receiver,
			Sender:   m.Sender,
			Size:     m.Size,
			Kind:     PointToPoint,
			Op:       "send",
			Level:    Physical,
		})
	}
	return t
}
