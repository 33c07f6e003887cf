package stream

import (
	"io"
	"math/rand"

	"mpipredict/internal/trace"
)

// synthSource generates the exact event stream trace.Synthesize builds —
// the full logical repetition of the pattern followed by the physical
// stream with seeded adjacent swaps — without ever materializing it. The
// physical swap pass needs only one held-back message: at position i the
// choice is always between the carried-forward element and the original
// i+1-th pattern element, so the in-memory swap loop collapses to a
// single-element lookahead. That is what makes tracegen -stream able to
// generate traces far larger than RAM while staying byte-identical to
// the in-memory path on small ones (pinned by the tracegen tests).
type synthSource struct {
	meta
	cfg trace.SynthConfig
	n   int // events per level

	i       int // next index within the current level
	level   trace.Level
	rng     *rand.Rand
	pending trace.SynthMessage // physical pass: element currently at position i
	primed  bool
	done    bool
}

// SynthSource returns a constant-memory Source over the synthetic trace
// Synthesize(cfg) would build, in the identical record order.
func SynthSource(cfg trace.SynthConfig) Source {
	n := max(cfg.Events, 0)
	if len(cfg.Pattern) == 0 {
		n = 0
	}
	return &synthSource{
		meta:  meta{md: Metadata{App: cfg.App, Procs: cfg.Procs}, haveM: true},
		cfg:   cfg,
		n:     n,
		level: trace.Logical,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

func (s *synthSource) at(i int) trace.SynthMessage {
	return s.cfg.Pattern[i%len(s.cfg.Pattern)]
}

func (s *synthSource) record(m trace.SynthMessage, pos int) trace.Record {
	return trace.Record{
		Time:     float64(pos),
		Receiver: s.cfg.Receiver,
		Sender:   m.Sender,
		Size:     m.Size,
		Kind:     trace.PointToPoint,
		Op:       "send",
		Level:    s.level,
	}
}

func (s *synthSource) Next(b *EventBlock) error {
	b.Reset()
	for b.Len() < BlockLen && !s.done {
		switch s.level {
		case trace.Logical:
			if s.i >= s.n {
				s.level = trace.Physical
				s.i = 0
				continue
			}
			b.Append(s.record(s.at(s.i), s.i))
			s.i++
		case trace.Physical:
			if s.n == 0 {
				s.done = true
				continue
			}
			if !s.primed {
				s.pending = s.at(0)
				s.primed = true
			}
			if s.i == s.n-1 {
				b.Append(s.record(s.pending, s.i))
				s.done = true
				continue
			}
			next := s.at(s.i + 1)
			if s.cfg.SwapProbability > 0 && s.rng.Float64() < s.cfg.SwapProbability {
				// The later message arrives early; the carried one keeps
				// waiting and can bubble further — the same semantics as
				// the in-memory swap loop.
				b.Append(s.record(next, s.i))
			} else {
				b.Append(s.record(s.pending, s.i))
				s.pending = next
			}
			s.i++
		}
	}
	if b.Len() == 0 {
		return io.EOF
	}
	return nil
}
