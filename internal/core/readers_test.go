package core

import "fmt"

// The readers below let the tests inspect detector, ring and predictor
// state and cross-check the incremental counts; production code does not
// call them.

// Config returns the configuration the detector was built with (after
// defaulting).
func (d *Detector) Config() Config { return d.cfg }

// Len returns the number of samples currently held in the window.
func (d *Detector) Len() int { return d.win.Len() }

// Observed returns the total number of samples ever observed, including
// those that have since left the window.
func (d *Detector) Observed() int64 { return d.observed }

// Distance returns d(m) from equation (1) computed over the current
// window: the number of positions i for which x[i] != x[i-m]. The result
// is produced from the incrementally maintained counts; DistanceDirect
// recomputes it from scratch and is used by the tests to validate the
// incremental bookkeeping. Distance panics if m is outside 1..MaxLag.
func (d *Detector) Distance(m int) int {
	if m < 1 || m > d.cfg.MaxLag {
		panic(fmt.Sprintf("core: Distance lag %d out of range 1..%d", m, d.cfg.MaxLag))
	}
	d.catchUp()
	return d.count(m)
}

// DistanceDirect recomputes d(m) by scanning the window, so the
// incremental counts can be cross-checked.
func (d *Detector) DistanceDirect(m int) int {
	if m < 1 || m > d.cfg.MaxLag {
		panic(fmt.Sprintf("core: DistanceDirect lag %d out of range 1..%d", m, d.cfg.MaxLag))
	}
	n := d.win.Len()
	count := 0
	for i := m; i < n; i++ {
		if d.win.At(i) != d.win.At(i-m) {
			count++
		}
	}
	return count
}

// PeriodWithin returns the smallest lag whose mismatch fraction
// (d(m) / compared pairs) does not exceed tol. PeriodWithin(0) is
// equivalent to Period; lockPeriod's tolerant search must agree with it.
func (d *Detector) PeriodWithin(tol float64) (period int, ok bool) {
	if tol < 0 {
		tol = 0
	}
	d.catchUp()
	n, lim := d.win.Len(), d.searchLimit()
	for m := 1; m <= lim; m++ {
		if d.count(m) <= int(tol*float64(n-m)) {
			return m, true
		}
	}
	return 0, false
}

// Periodogram returns a copy of the mismatch counts indexed by lag
// (index 0 is unused and always zero).
func (d *Detector) Periodogram() []int {
	d.catchUp()
	out := make([]int, d.cfg.MaxLag+1)
	for m := 1; m < len(out); m++ {
		out[m] = d.count(m)
	}
	return out
}

// PredictSeries predicts the next count future values. Predictions that
// cannot be made (no period detected) are reported with OK == false.
func (d *Detector) PredictSeries(count int) []Prediction {
	return d.PredictSeriesInto(make([]Prediction, 0, count), count)
}

// Cap returns the fixed capacity of the ring.
func (r *ring) Cap() int { return r.size }

// Full reports whether the ring holds Cap() samples.
func (r *ring) Full() bool { return r.count == r.size }

// Last returns the most recently pushed sample; ok is false when empty.
func (r *ring) Last() (int64, bool) {
	if r.count == 0 {
		return 0, false
	}
	return r.At(r.count - 1), true
}

// Pattern returns a copy of the locked pattern, or nil while learning.
func (p *StreamPredictor) Pattern() []int64 {
	if p.state != Locked {
		return nil
	}
	out := make([]int64, len(p.pattern))
	copy(out, p.pattern)
	return out
}

// PredictSeries predicts the next count values, abstentions included.
func (p *StreamPredictor) PredictSeries(count int) []Prediction {
	return p.PredictSeriesInto(make([]Prediction, 0, count), count)
}

// PredictSet returns the multiset of values expected over the next count
// observations, without regard to order. Section 5.3 of the paper argues
// that for buffer pre-allocation the receiver only needs to know *which*
// senders (and which sizes) are coming next, not their exact order; this
// is the query that application makes.
func (p *StreamPredictor) PredictSet(count int) ([]int64, bool) {
	out, ok := p.PredictSetInto(make([]int64, 0, count), count)
	if !ok {
		return nil, false
	}
	return out, true
}
