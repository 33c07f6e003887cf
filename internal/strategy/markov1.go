package strategy

import (
	"fmt"
	"math"

	"mpipredict/internal/core"
)

// Markov1MaxValues bounds the number of distinct values a Markov1 strategy
// interns. MPI receive streams draw from tiny alphabets (a handful of
// sender ranks and message sizes — Table 1's "frequent sizes/senders"
// columns), so the bound exists only to keep an adversarial stream from
// growing the transition table without limit: values beyond the bound are
// treated as unknown (no transitions learned from or to them).
const Markov1MaxValues = 1024

// Markov1 is a first-order transition-frequency predictor: it counts how
// often value b followed value a and predicts the most frequent successor
// of the current value, chaining successors for multi-step horizons. It is
// the classic history-based alternative the paper's related-work section
// discusses. Values are interned to dense ids in first-appearance order,
// so the steady-state Observe path is two slice indexings and a map lookup
// — no allocations once the stream's alphabet has been seen.
//
// It is a separate implementation from the order-1 Markov baseline of the
// Section 6 comparison (a test-local predictor beside
// BenchmarkBaselineComparison): that one breaks successor ties toward the
// smallest value and interns nothing, while this one breaks ties toward
// the earliest-interned value so its snapshots restore exactly. On
// tie-free streams the two agree; on ties their predictions can differ.
//
// Ties are broken toward the earliest-interned value, maintained
// incrementally, so the predicted successor is a pure function of the
// transition counts — the property that makes Snapshot/Restore exact: a
// restored strategy predicts exactly like the one that was snapshotted.
type Markov1 struct {
	ids    map[int64]int32 // value -> dense id
	values []int64         // id -> value, first-appearance order
	counts [][]uint32      // counts[a][b] = times values[b] followed values[a]

	// bestSucc[a] is the smallest-id argmax of counts[a] (-1 when row a is
	// empty); bestCount[a] is its count. Maintained on every increment so
	// Predict never scans a row.
	bestSucc  []int32
	bestCount []uint32

	last int32 // id of the most recent observation, -1 when none/unknown
}

// NewMarkov1 returns an untrained first-order Markov strategy.
func NewMarkov1() *Markov1 {
	return &Markov1{ids: make(map[int64]int32), last: -1}
}

// Desc implements Strategy.
func (p *Markov1) Desc() Desc {
	return Desc{Name: "markov1", Config: fmt.Sprintf("max-values=%d", Markov1MaxValues)}
}

// intern returns the dense id for x, assigning the next id on first
// sight. It returns -1 when the intern table is full and x is new.
func (p *Markov1) intern(x int64) int32 {
	if id, ok := p.ids[x]; ok {
		return id
	}
	if len(p.values) >= Markov1MaxValues {
		return -1
	}
	id := int32(len(p.values))
	p.ids[x] = id
	p.values = append(p.values, x)
	p.counts = append(p.counts, nil)
	p.bestSucc = append(p.bestSucc, -1)
	p.bestCount = append(p.bestCount, 0)
	return id
}

// Observe implements Strategy.
func (p *Markov1) Observe(x int64) {
	id := p.intern(x)
	if prev := p.last; prev >= 0 && id >= 0 {
		row := p.counts[prev]
		if int(id) >= len(row) {
			grown := make([]uint32, len(p.values))
			copy(grown, row)
			row = grown
			p.counts[prev] = row
		}
		// Saturate instead of wrapping: after 2³² repeats of one
		// transition the increment would wrap the count to 0, leaving
		// bestCount[prev] stale and the argmax invariant corrupted. A
		// saturated count stays the maximum, which also keeps Restore's
		// ascending strictly-greater scan in agreement with the online
		// tie-break.
		if row[id] != math.MaxUint32 {
			row[id]++
		}
		c := row[id]
		// Keep bestSucc the smallest-id argmax: a strictly greater count
		// always wins; an equal count wins only from a smaller id.
		if c > p.bestCount[prev] || (c == p.bestCount[prev] && id < p.bestSucc[prev]) {
			p.bestSucc[prev] = id
			p.bestCount[prev] = c
		}
	}
	p.last = id
}

// Predict implements Strategy: follow the most frequent successor chain k
// steps from the last observed value, abstaining when any link is missing.
func (p *Markov1) Predict(k int) (int64, bool) {
	if k < 1 || p.last < 0 {
		return 0, false
	}
	cur := p.last
	for step := 0; step < k; step++ {
		next := p.bestSucc[cur]
		if next < 0 {
			return 0, false
		}
		cur = next
	}
	return p.values[cur], true
}

// PredictSeriesInto implements Strategy.
func (p *Markov1) PredictSeriesInto(dst []core.Prediction, count int) []core.Prediction {
	return seriesInto(p, dst, count)
}

// PredictSetInto implements Strategy.
func (p *Markov1) PredictSetInto(dst []int64, count int) ([]int64, bool) {
	return setInto(p, dst, count)
}

// Reset implements Strategy.
func (p *Markov1) Reset() {
	*p = Markov1{ids: make(map[int64]int32), last: -1}
}

// Snapshot implements Strategy. Layout: uvarint value count, the interned
// values in id order, one sparse row per value (uvarint entry count, then
// ascending (uvarint id, uvarint count) pairs), and the varint id of the
// last observation (-1 when none). Everything is keyed by intern order, so
// equal states always produce equal bytes.
func (p *Markov1) Snapshot() []byte {
	var w payloadWriter
	w.uvarint(uint64(len(p.values)))
	for _, v := range p.values {
		w.varint(v)
	}
	for _, row := range p.counts {
		nonzero := 0
		for _, c := range row {
			if c > 0 {
				nonzero++
			}
		}
		w.uvarint(uint64(nonzero))
		for id, c := range row {
			if c > 0 {
				w.uvarint(uint64(id))
				w.uvarint(uint64(c))
			}
		}
	}
	w.varint(int64(p.last))
	return w.buf
}

// Restore implements Strategy.
func (p *Markov1) Restore(payload []byte) error {
	r := &payloadReader{data: payload}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > Markov1MaxValues {
		return payloadErrf("%d interned values exceed the limit %d", n, Markov1MaxValues)
	}
	ids := make(map[int64]int32, n)
	values := make([]int64, n)
	for i := range values {
		v, err := r.varint()
		if err != nil {
			return err
		}
		if _, dup := ids[v]; dup {
			return payloadErrf("duplicate interned value %d", v)
		}
		ids[v] = int32(i)
		values[i] = v
	}
	counts := make([][]uint32, n)
	bestSucc := make([]int32, n)
	bestCount := make([]uint32, n)
	for a := range counts {
		bestSucc[a] = -1
		entries, err := r.uvarint()
		if err != nil {
			return err
		}
		if entries > n {
			return payloadErrf("row %d has %d entries for %d values", a, entries, n)
		}
		if entries == 0 {
			continue
		}
		row := make([]uint32, n)
		prev := int64(-1)
		for e := uint64(0); e < entries; e++ {
			id, err := r.uvarint()
			if err != nil {
				return err
			}
			c, err := r.uvarint()
			if err != nil {
				return err
			}
			if id >= n {
				return payloadErrf("row %d references value id %d of %d", a, id, n)
			}
			if int64(id) <= prev {
				return payloadErrf("row %d entries are not strictly ascending", a)
			}
			if c == 0 || c > 1<<32-1 {
				return payloadErrf("row %d entry %d has count %d", a, id, c)
			}
			prev = int64(id)
			row[id] = uint32(c)
			// Ascending scan with a strictly-greater test lands on the
			// smallest-id argmax, matching the online tie-break exactly.
			if uint32(c) > bestCount[a] {
				bestSucc[a] = int32(id)
				bestCount[a] = uint32(c)
			}
		}
		counts[a] = row
	}
	last, err := r.varint()
	if err != nil {
		return err
	}
	if last < -1 || last >= int64(n) {
		return payloadErrf("last id %d outside [-1, %d)", last, n)
	}
	if err := r.done(); err != nil {
		return err
	}
	p.ids = ids
	p.values = values
	p.counts = counts
	p.bestSucc = bestSucc
	p.bestCount = bestCount
	p.last = int32(last)
	return nil
}
