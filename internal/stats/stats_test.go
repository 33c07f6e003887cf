package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The helpers below have no production caller; they stay beside the
// tests that pin them.

// running accumulates count, mean and variance of a stream of float64
// observations using Welford's online algorithm, which is numerically
// stable for long streams.
type running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations seen so far.
func (r *running) N() int64 { return r.n }

// Mean returns the arithmetic mean of the observations, or 0 when empty.
func (r *running) Mean() float64 { return r.mean }

// Var returns the (population) variance of the observations.
func (r *running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *running) StdDev() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest observation, or 0 when empty.
func (r *running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 when empty.
func (r *running) Max() float64 { return r.max }

// String renders a compact summary, convenient for report tables.
func (r *running) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// entropy returns the Shannon entropy (bits) of the empirical
// distribution. Low entropy indicates a highly concentrated stream
// (few distinct senders/sizes), which the paper identifies as one reason
// LU and Sweep3D stay predictable even at the physical level.
func entropy(h *Hist) float64 {
	if h.total == 0 {
		return 0
	}
	var e float64
	tot := float64(h.total)
	for _, c := range h.counts {
		p := float64(c) / tot
		e -= p * math.Log2(p)
	}
	return e
}

// percentile returns the p-th percentile (0..100) of an int64 slice using
// the nearest-rank method. The slice is not modified.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]int64, len(xs))
	copy(cp, xs)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(cp))))
	if rank < 1 {
		rank = 1
	}
	return cp[rank-1]
}

// meanInt64 returns the arithmetic mean of an int64 slice (0 when empty).
func meanInt64(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// addN counts n occurrences of v.
func addN(h *Hist, v int64, n int) {
	for i := 0; i < n; i++ {
		h.Add(v)
	}
}

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningEmpty(t *testing.T) {
	var r running
	if r.N() != 0 || r.Mean() != 0 || r.Var() != 0 || r.StdDev() != 0 {
		t.Fatalf("empty running should be all zero, got %s", r.String())
	}
}

func TestRunningSingle(t *testing.T) {
	var r running
	r.Add(42)
	if r.N() != 1 {
		t.Fatalf("N=%d want 1", r.N())
	}
	if r.Mean() != 42 {
		t.Fatalf("mean=%v want 42", r.Mean())
	}
	if r.Var() != 0 {
		t.Fatalf("variance of single sample should be 0, got %v", r.Var())
	}
	if r.Min() != 42 || r.Max() != 42 {
		t.Fatalf("min/max = %v/%v want 42/42", r.Min(), r.Max())
	}
}

func TestRunningKnownValues(t *testing.T) {
	var r running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Errorf("mean=%v want 5", r.Mean())
	}
	if !almostEqual(r.StdDev(), 2, 1e-12) {
		t.Errorf("stddev=%v want 2", r.StdDev())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max=%v/%v want 2/9", r.Min(), r.Max())
	}
}

func TestRunningMatchesDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var r running
	for i := range xs {
		xs[i] = rng.NormFloat64()*13 + 100
		r.Add(xs[i])
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	if !almostEqual(r.Mean(), mean, 1e-9) {
		t.Errorf("mean mismatch: %v vs %v", r.Mean(), mean)
	}
	if !almostEqual(r.Var(), ss/float64(len(xs)), 1e-7) {
		t.Errorf("var mismatch: %v vs %v", r.Var(), ss/float64(len(xs)))
	}
}

func TestHistBasic(t *testing.T) {
	h := NewHist()
	if h.Distinct() != 0 || h.Frequent(1) != nil {
		t.Fatal("new hist should be empty")
	}
	for _, v := range []int64{1, 1, 2, 3, 3, 3} {
		h.Add(v)
	}
	if h.Distinct() != 3 {
		t.Errorf("distinct=%d want 3", h.Distinct())
	}
	// Descending count, ties broken by the smaller value.
	if got := h.Frequent(1); len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("Frequent(1) = %v want [3 1 2]", got)
	}
}

func TestHistAddN(t *testing.T) {
	h := NewHist()
	addN(h, 5, 10)
	if h.Distinct() != 1 {
		t.Errorf("distinct=%d want 1", h.Distinct())
	}
	if got := h.Frequent(0.1); len(got) != 1 || got[0] != 5 {
		t.Errorf("Frequent(0.1) = %v want [5]", got)
	}
}

// The most frequent value leads Frequent's answer.
func TestHistMode(t *testing.T) {
	h := NewHist()
	addN(h, 30, 2)
	addN(h, 20, 5)
	addN(h, 10, 5)
	if got := h.Frequent(0.01); len(got) != 1 || got[0] != 10 {
		t.Errorf("Frequent(0.01) = %v want [10], the mode with its tie broken by the smaller value", got)
	}
}

func TestHistFrequentExcludesRareValues(t *testing.T) {
	h := NewHist()
	// A BT-like size stream: three frequent sizes plus one setup message.
	addN(h, 3240, 800)
	addN(h, 10240, 800)
	addN(h, 19440, 800)
	addN(h, 4, 1)
	freq := h.Frequent(0.99)
	if len(freq) != 3 {
		t.Fatalf("Frequent(0.99) = %v, want the 3 dominant sizes", freq)
	}
	all := h.Frequent(1.0)
	if len(all) != 4 {
		t.Fatalf("Frequent(1.0) = %v, want all 4 values", all)
	}
}

func TestHistFrequentEdgeCases(t *testing.T) {
	h := NewHist()
	if got := h.Frequent(0.9); got != nil {
		t.Errorf("empty hist Frequent should be nil, got %v", got)
	}
	h.Add(1)
	if got := h.Frequent(0); got != nil {
		t.Errorf("coverage 0 should return nil, got %v", got)
	}
	if got := h.Frequent(5); len(got) != 1 {
		t.Errorf("coverage >1 clamps to 1, got %v", got)
	}
}

func TestHistEntropy(t *testing.T) {
	h := NewHist()
	if entropy(h) != 0 {
		t.Error("entropy of empty hist should be 0")
	}
	addN(h, 1, 100)
	if entropy(h) != 0 {
		t.Error("entropy of single-value hist should be 0")
	}
	h2 := NewHist()
	addN(h2, 1, 50)
	addN(h2, 2, 50)
	if !almostEqual(entropy(h2), 1, 1e-12) {
		t.Errorf("entropy of uniform 2-value hist = %v want 1", entropy(h2))
	}
	h4 := NewHist()
	for v := int64(0); v < 4; v++ {
		addN(h4, v, 25)
	}
	if !almostEqual(entropy(h4), 2, 1e-12) {
		t.Errorf("entropy of uniform 4-value hist = %v want 2", entropy(h4))
	}
}

func TestPercentile(t *testing.T) {
	xs := []int64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	cases := []struct {
		p    float64
		want int64
	}{
		{0, 1}, {10, 1}, {50, 5}, {90, 9}, {100, 10}, {-5, 1}, {150, 10},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of empty slice should be 0")
	}
	// Percentile must not mutate its input.
	if xs[0] != 9 {
		t.Error("Percentile mutated its input slice")
	}
}

func TestMeanInt64(t *testing.T) {
	if meanInt64(nil) != 0 {
		t.Error("mean of empty slice should be 0")
	}
	if got := meanInt64([]int64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("mean=%v want 2.5", got)
	}
}

func TestDistinct(t *testing.T) {
	h := NewHist()
	for _, v := range []int64{1, 1, 2, 3, 3} {
		h.Add(v)
	}
	if h.Distinct() != 3 {
		t.Errorf("Distinct = %d want 3", h.Distinct())
	}
	if NewHist().Distinct() != 0 {
		t.Error("Distinct of an empty hist should be 0")
	}
}

// Property: the histogram counts every distinct value once and
// Frequent(1.0) always covers every distinct value.
func TestHistProperties(t *testing.T) {
	f := func(vals []int16) bool {
		h := NewHist()
		for _, v := range vals {
			h.Add(int64(v))
		}
		if len(vals) > 0 && len(h.Frequent(1.0)) != h.Distinct() {
			return false
		}
		seen := make(map[int16]bool)
		for _, v := range vals {
			seen[v] = true
		}
		return h.Distinct() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Running mean always lies between Min and Max.
func TestRunningMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var r running
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue // keep magnitudes physical; extreme values only test float rounding
			}
			r.Add(v)
		}
		if r.N() == 0 {
			return true
		}
		return r.Mean() >= r.Min()-1e-6 && r.Mean() <= r.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
