package core

// Detector is the Dynamic Periodicity Detector: it maintains a sliding
// window of the most recent samples of a stream and, for every candidate
// lag m in 1..MaxLag, the number of positions at which the window differs
// from itself shifted by m. A lag with zero mismatches is a period of the
// window (equation (1) of the paper evaluates to zero).
//
// Mismatch counts are maintained incrementally: each Observe call touches
// only the pairs gained and lost at the window boundaries, so the cost per
// observation is O(MaxLag) regardless of the window size. A locked
// StreamPredictor does not read the counts, so it feeds the detector
// through push, which only appends to the window and leaves the counts
// stale. Every method that reads the counts first brings them up to date
// (catchUp), so callers always see equation (1) over the current window.
//
// Detector is not safe for concurrent use, and its count readers mutate
// it; wrap it if multiple goroutines feed or query the same stream.
type Detector struct {
	cfg      Config
	win      ring
	mismatch []int // mismatch[m] for m in 1..MaxLag (index 0 unused)
	observed int64 // total samples ever observed

	// stale is the number of samples pushed since the counts last matched
	// the window, and validLen the window length they matched then.
	stale    int
	validLen int

	// allowed[p] is the largest mismatch count within LockTolerance for
	// a lag compared over p pairs: int(LockTolerance*p), p = 0..WindowSize.
	// It is read-only and may be shared between detectors.
	allowed []int
}

// NewDetector returns a Detector for the given configuration. Zero fields
// in cfg are replaced by DefaultConfig values; an invalid configuration
// panics, since it is a programming error rather than a runtime condition.
func NewDetector(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return newDetector(cfg)
}

// newDetector builds a detector for a configuration that is already
// defaulted and validated. RestoreStreamPredictor uses it directly because
// a snapshot's configuration must not be re-defaulted.
func newDetector(cfg Config) *Detector {
	return &Detector{
		cfg:      cfg,
		win:      newRing(cfg.WindowSize, replayLimit(cfg)),
		mismatch: make([]int, cfg.MaxLag+1),
		allowed:  allowedTable(cfg),
	}
}

// replayLimit is the largest number of skipped count updates catchUp
// replays instead of rebuilding the counts, and so the number of evicted
// samples the window ring keeps. Replaying k updates of a full window
// costs 2·k·MaxLag compares; a rebuild costs W·MaxLag − MaxLag²/2. The
// two meet at k = W/2 − MaxLag/4 (208 for the default configuration). It
// is at least 1 for every valid configuration, since MaxLag < W.
func replayLimit(cfg Config) int {
	return cfg.WindowSize/2 - cfg.MaxLag/4
}

// defaultAllowed is the allowed table of DefaultConfig. Every detector
// with the default WindowSize and LockTolerance shares it; it is never
// written after package initialization.
var defaultAllowed = allowedMismatches(DefaultConfig().WindowSize, DefaultConfig().LockTolerance)

// allowedTable returns the allowed table for cfg: the shared default one
// when cfg has the default window and tolerance, a fresh one otherwise.
// Only the default pair is shared, so snapshot configurations (untrusted
// input) cannot grow any global state.
func allowedTable(cfg Config) []int {
	def := DefaultConfig()
	if cfg.WindowSize == def.WindowSize && cfg.LockTolerance == def.LockTolerance {
		return defaultAllowed
	}
	return allowedMismatches(cfg.WindowSize, cfg.LockTolerance)
}

// allowedMismatches returns the table allowed[p] = int(tol*p) for
// p = 0..windowSize: the float bound int(tol*(n-m)) on d(m) that a
// tolerant period search applies, evaluated once per p.
func allowedMismatches(windowSize int, tol float64) []int {
	allowed := make([]int, windowSize+1)
	for p := range allowed {
		allowed[p] = int(tol * float64(p))
	}
	return allowed
}

// Window returns a copy of the current window contents, oldest first.
func (d *Detector) Window() []int64 { return d.win.Snapshot() }

// Reset discards all state, returning the detector to its initial
// condition without reallocating.
func (d *Detector) Reset() {
	d.win.Reset()
	for i := range d.mismatch {
		d.mismatch[i] = 0
	}
	d.observed = 0
	d.stale = 0
	d.validLen = 0
}

// Observe appends one sample to the window and updates all per-lag
// mismatch counts, first applying any updates that push skipped.
func (d *Detector) Observe(x int64) {
	d.push(x)
	d.catchUp()
}

// push appends one sample to the window without updating the counts,
// which become stale until the next catchUp. It is the locked
// StreamPredictor's observe: two O(MaxLag) passes less per sample.
func (d *Detector) push(x int64) {
	if d.stale == 0 {
		d.validLen = d.win.Len()
	}
	d.win.Push(x)
	d.observed++
	d.stale++
}

// catchUp brings stale counts up to date with the window, by whichever
// is cheaper: replaying the skipped incremental updates, which needs the
// samples they evicted (the ring keeps replayLimit of them), or
// rebuilding the counts from the window.
func (d *Detector) catchUp() {
	k := d.stale
	if k == 0 {
		return
	}
	d.stale = 0
	if k > d.win.Spare() {
		d.rebuild()
		return
	}
	// The j-th skipped sample sits at index n-k+j; the window it was
	// pushed into held min(WindowSize, validLen+j) samples.
	n := d.win.Len()
	for j := range k {
		d.advance(n-k+j, min(d.cfg.WindowSize, d.validLen+j))
	}
}

// advance applies the incremental count update for the sample at window
// index e, pushed into a window of prev samples: window[e-prev..e-1].
// When that window was full, its oldest sample, window[e-prev], was
// evicted by the push; for every lag m the pair in which it is the older
// element — (window[e-prev+m], window[e-prev]) — leaves the set of
// compared positions. The new sample forms one new pair per lag:
// (window[e], window[e-m]). Both passes read the window as at most two
// contiguous runs of the ring's backing array, so the per-lag work is one
// compare and one counter update.
func (d *Detector) advance(e, prev int) {
	if prev == d.cfg.WindowSize {
		// window[e-prev+1..e-prev+lim] runs oldest-first, in step with
		// mismatch[1..lim].
		lim := min(d.cfg.MaxLag, prev-1)
		a, b := d.win.Segments(e-prev, e-prev+1+lim)
		oldest := a[0]
		a = a[1:]
		mm := d.mismatch[1 : lim+1]
		uncount(mm[:len(a)], a, oldest)
		uncount(mm[len(a):], b, oldest)
	}
	// Read newest-first, window[e-lim..e-1] is in step with
	// mismatch[1..lim].
	x := d.win.At(e)
	lim := min(d.cfg.MaxLag, prev)
	a, b := d.win.Segments(e-lim, e)
	mm := d.mismatch[1 : lim+1]
	countReversed(mm[:len(b)], b, x)
	countReversed(mm[len(b):], a, x)
}

// rebuild recomputes every count from the window, one contiguous pass
// per lag, after rotating the ring so the window is one run. Counts of
// lags the window is too short for are zero already: the window only
// shrinks in Reset, which zeroes them.
func (d *Detector) rebuild() {
	w := d.win.Unwrap()
	for m := 1; m <= min(d.cfg.MaxLag, len(w)-1); m++ {
		d.mismatch[m] = mismatches(w[m:], w[:len(w)-m])
	}
}

// mismatches counts the positions i with a[i] != b[i]; len(b) >= len(a).
func mismatches(a, b []int64) int {
	b = b[:len(a)]
	c := 0
	for i, v := range a {
		c += b2i(v != b[i])
	}
	return c
}

// uncount decrements mm[i] for every i with s[i] != x; len(s) == len(mm).
func uncount(mm []int, s []int64, x int64) {
	s = s[:len(mm)]
	for i, v := range s {
		mm[i] -= b2i(v != x)
	}
}

// countReversed increments mm[i] for every i with s[len(s)-1-i] != x;
// len(s) == len(mm).
func countReversed(mm []int, s []int64, x int64) {
	s = s[:len(mm)]
	for i := range mm {
		mm[i] += b2i(s[len(s)-1-i] != x)
	}
}

// b2i converts a comparison to 0 or 1. The compiler turns it into a
// flag-to-register move rather than a branch, which keeps the compare
// passes free of mispredictions on streams that mix hits and misses.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// searchLimit returns the largest lag a period search may report for the
// current window: at most MaxLag, compared over at least one pair
// (m < Len()), and repeated at least MinRepeats times (MinRepeats*m <=
// Len()). Every smaller lag satisfies the same bounds.
func (d *Detector) searchLimit() int {
	n := d.win.Len()
	return max(0, min(d.cfg.MaxLag, n-1, n/d.cfg.MinRepeats))
}

// Period returns the smallest lag m for which the window is exactly
// periodic (d(m) == 0) and for which the window holds at least
// MinRepeats*m samples. ok is false when no such lag exists, which is the
// detector's way of saying "no iterative pattern visible yet".
func (d *Detector) Period() (period int, ok bool) {
	d.catchUp()
	for i, c := range d.mismatch[1 : d.searchLimit()+1] {
		if c == 0 {
			return i + 1, true
		}
	}
	return 0, false
}

// lockPeriod is StreamPredictor's period search in one pass over the
// lags: the smallest strict lag (what Period returns) when there is one,
// otherwise the smallest lag m within the configured LockTolerance
// (d(m) <= int(LockTolerance*(n-m))). A strict lag is also within
// tolerance, so the smallest tolerant lag is found first; the scan then
// continues from it for a strict lag. The tolerance test reads the
// allowed table, so it costs an integer compare per lag.
func (d *Detector) lockPeriod() (period int, ok bool) {
	d.catchUp()
	n := d.win.Len()
	lim := d.searchLimit()
	m := 1
	for ; m <= lim; m++ {
		if d.mismatch[m] <= d.allowed[n-m] {
			break
		}
	}
	if m > lim {
		return 0, false
	}
	tolerant := m
	for ; m <= lim; m++ {
		if d.mismatch[m] == 0 {
			return m, true
		}
	}
	return tolerant, true
}

// Predict returns the value the detector expects k observations in the
// future (k >= 1), based on the currently detected period: the prediction
// for x[t+k] is x[t+k-m]. ok is false when no period is detected or k is
// not positive.
func (d *Detector) Predict(k int) (int64, bool) {
	if k < 1 {
		return 0, false
	}
	m, ok := d.Period()
	if !ok {
		return 0, false
	}
	return d.predictAt(m, k), true
}

// predictAt returns x[t+k-m] for a detected period m (1 <= m < Len()) and
// k >= 1. The index n-m+((k-1) mod m) always lies in [n-m, n-1].
func (d *Detector) predictAt(m, k int) int64 {
	return d.win.At(d.win.Len() - m + (k-1)%m)
}

// PredictSeriesInto appends the next count predictions to dst and returns
// it, allowing hot-path callers to reuse one buffer across queries. The
// period is looked up once for the whole series.
func (d *Detector) PredictSeriesInto(dst []Prediction, count int) []Prediction {
	m, ok := d.Period()
	for k := 1; k <= count; k++ {
		var v int64
		if ok {
			v = d.predictAt(m, k)
		}
		dst = append(dst, Prediction{Ahead: k, Value: v, OK: ok})
	}
	return dst
}

// Prediction is a single multi-step-ahead prediction: the value expected
// Ahead observations in the future. OK is false when the predictor
// abstained (for example because no period has been detected yet).
type Prediction struct {
	Ahead int
	Value int64
	OK    bool
}

// DetectPeriod is a convenience helper that reports the period a fresh
// Detector detects at the end of an entire slice. It is used by the
// Figure 1 experiment, which asks for the period of the sender and size
// streams of a whole trace rather than for online predictions. The counts
// depend only on the final window, so only the last WindowSize samples are
// pushed and the counts are computed once.
func DetectPeriod(xs []int64, cfg Config) (period int, ok bool) {
	d := NewDetector(cfg)
	for _, x := range xs[max(0, len(xs)-d.cfg.WindowSize):] {
		d.push(x)
	}
	return d.Period()
}
