package stream

import (
	"io"
	"math/rand"
	"sort"

	"mpipredict/internal/trace"
)

// filterSource compacts each upstream block in place, keeping only the
// events the predicate accepts. It allocates nothing per block: the
// caller's block is refilled through the same backing arrays.
type filterSource struct {
	meta
	src  Source
	keep func(b *EventBlock, i int) bool
}

func (s *filterSource) Next(b *EventBlock) error {
	for {
		if err := s.src.Next(b); err != nil {
			return err // io.EOF included; b is empty then
		}
		n := 0
		for i := 0; i < b.Len(); i++ {
			if !s.keep(b, i) {
				continue
			}
			if n != i {
				b.Time[n] = b.Time[i]
				b.Receiver[n] = b.Receiver[i]
				b.Sender[n] = b.Sender[i]
				b.Size[n] = b.Size[i]
				b.Tag[n] = b.Tag[i]
				b.Kind[n] = b.Kind[i]
				b.Level[n] = b.Level[i]
				b.Op[n] = b.Op[i]
			}
			n++
		}
		b.Time = b.Time[:n]
		b.Receiver = b.Receiver[:n]
		b.Sender = b.Sender[:n]
		b.Size = b.Size[:n]
		b.Tag = b.Tag[:n]
		b.Kind = b.Kind[:n]
		b.Level = b.Level[:n]
		b.Op = b.Op[:n]
		if n > 0 {
			return nil
		}
		// The whole block was filtered away; pull the next one rather
		// than returning an empty non-EOF block.
	}
}

func (s *filterSource) Close() error { return Close(s.src) }

// FilterReceiver keeps only the events delivered to the given rank — the
// per-receiver view every evaluation consumes.
func FilterReceiver(src Source, receiver int) Source {
	return &filterSource{meta: metaFrom(src), src: src,
		keep: func(b *EventBlock, i int) bool { return b.Receiver[i] == receiver }}
}

// PerturbConfig parameterizes the deterministic perturbation transform.
type PerturbConfig struct {
	// SwapProbability is the per-position probability that an event
	// swaps places with the next event of the same (receiver, level)
	// stream — the adjacent-transposition model of arrival-order noise
	// the synthetic traces use (trace.SynthConfig.SwapProbability).
	SwapProbability float64
	// DropProbability is the per-event probability that the event is
	// lost. Dropped events consume no swap roll.
	DropProbability float64
	// PhysicalOnly restricts the perturbation to physical-level events:
	// program order (the logical level) is a function of the application
	// alone, so robustness scenarios normally perturb only arrivals.
	PhysicalOnly bool
	// Seed drives the perturbation; a fixed seed reproduces the exact
	// same perturbed stream on every run.
	Seed int64
}

// perturbSource applies seeded per-stream reordering and loss.
type perturbSource struct {
	meta
	src     Source
	cfg     PerturbConfig
	rng     *rand.Rand
	pending map[streamKey]trace.Record
	head    EventBlock     // current upstream block
	cursor  int            // next unconsumed index in head
	flushed []trace.Record // deterministic EOF flush, filled once
	flushAt int
	eof     bool
}

type streamKey struct {
	receiver int
	level    trace.Level
}

// Perturb wraps a source with deterministic, seeded perturbation:
// adjacent swaps and drops applied independently per (receiver, level)
// stream. The output depends only on the source's event order and the
// seed, so perturbed scenarios are exactly reproducible — the property
// the robustness tests pin. Time stamps travel with the events (a swap
// emits the later event with the earlier timestamp's position in the
// stream but its own Time), mirroring what arrival reordering does to a
// recorded trace.
func Perturb(src Source, cfg PerturbConfig) Source {
	return &perturbSource{
		meta:    metaFrom(src),
		src:     src,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pending: make(map[streamKey]trace.Record),
	}
}

func (s *perturbSource) perturbed(k streamKey) bool {
	return !s.cfg.PhysicalOnly || k.level == trace.Physical
}

func (s *perturbSource) Next(b *EventBlock) error {
	b.Reset()
	for b.Len() < BlockLen {
		if s.eof {
			// Drain the held-back tail of every stream, in a fixed
			// (receiver, level) order so the flush is deterministic.
			if s.flushed == nil {
				keys := make([]streamKey, 0, len(s.pending))
				for k := range s.pending {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool {
					if keys[i].receiver != keys[j].receiver {
						return keys[i].receiver < keys[j].receiver
					}
					return keys[i].level < keys[j].level
				})
				s.flushed = make([]trace.Record, 0, len(keys))
				for _, k := range keys {
					s.flushed = append(s.flushed, s.pending[k])
				}
			}
			if s.flushAt >= len(s.flushed) {
				break
			}
			b.Append(s.flushed[s.flushAt])
			s.flushAt++
			continue
		}
		rec, err := s.read()
		if err == io.EOF {
			s.eof = true
			continue
		}
		if err != nil {
			return err
		}
		k := streamKey{rec.Receiver, rec.Level}
		if !s.perturbed(k) {
			b.Append(rec)
			continue
		}
		if s.cfg.DropProbability > 0 && s.rng.Float64() < s.cfg.DropProbability {
			continue
		}
		if s.cfg.SwapProbability <= 0 {
			// No swap can ever fire; skip the one-event lookahead so the
			// transform is an exact identity (drops aside).
			b.Append(rec)
			continue
		}
		prev, held := s.pending[k]
		if !held {
			s.pending[k] = rec
			continue
		}
		if s.rng.Float64() < s.cfg.SwapProbability {
			// The newer event jumps ahead; the held one keeps waiting,
			// so a run of swaps lets it bubble arbitrarily far back —
			// the same semantics as trace.Synthesize's swap pass.
			b.Append(rec)
		} else {
			b.Append(prev)
			s.pending[k] = rec
		}
	}
	if b.Len() == 0 {
		return io.EOF
	}
	return nil
}

// read returns the next upstream record, pulling blocks as needed.
func (s *perturbSource) read() (trace.Record, error) {
	for s.cursor >= s.head.Len() {
		err := s.src.Next(&s.head)
		s.cursor = 0
		if err != nil {
			return trace.Record{}, err
		}
	}
	rec := s.head.Record(s.cursor)
	s.cursor++
	return rec, nil
}

func (s *perturbSource) Close() error { return Close(s.src) }
