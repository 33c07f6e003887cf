// Package stats provides the histogram over discrete values that
// characterises message-size and sender streams (Table 1).
//
// The package is dependency-free (stdlib only) and its type is safe for
// single-goroutine use.
package stats

import (
	"math"
	"sort"
)

// Hist counts occurrences of discrete int64 values. It is used to
// characterise message-size and sender streams (Table 1 of the paper
// reports the number of distinct, frequently occurring values).
type Hist struct {
	counts map[int64]int64
	total  int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make(map[int64]int64)}
}

// Add counts one occurrence of v.
func (h *Hist) Add(v int64) {
	h.counts[v]++
	h.total++
}

// Distinct returns the number of distinct values observed.
func (h *Hist) Distinct() int { return len(h.counts) }

// Frequent returns the smallest set of values whose cumulative frequency
// reaches the given coverage fraction (0 < coverage <= 1), sorted by
// descending count. The paper's Table 1 footnote reports "the number of
// the frequently appearing sender and message sizes"; Frequent(0.99)
// reproduces that notion: rare one-off values (e.g. setup messages) are
// excluded.
func (h *Hist) Frequent(coverage float64) []int64 {
	if h.total == 0 {
		return nil
	}
	if coverage <= 0 {
		return nil
	}
	if coverage > 1 {
		coverage = 1
	}
	type kv struct {
		v int64
		c int64
	}
	pairs := make([]kv, 0, len(h.counts))
	for v, c := range h.counts {
		pairs = append(pairs, kv{v, c})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].c != pairs[j].c {
			return pairs[i].c > pairs[j].c
		}
		return pairs[i].v < pairs[j].v
	})
	need := int64(math.Ceil(coverage * float64(h.total)))
	var acc int64
	out := make([]int64, 0, len(pairs))
	for _, p := range pairs {
		if acc >= need {
			break
		}
		out = append(out, p.v)
		acc += p.c
	}
	return out
}
