package core

import (
	"encoding/binary"
	"math/bits"
)

// Detector is the Dynamic Periodicity Detector: it maintains a sliding
// window of the most recent samples of a stream and, for every candidate
// lag m in 1..MaxLag, the number of positions at which the window differs
// from itself shifted by m. A lag with zero mismatches is a period of the
// window (equation (1) of the paper evaluates to zero).
//
// Mismatch counts are maintained incrementally: each Observe call touches
// only the pairs gained and lost at the window boundaries, so the cost per
// observation is O(MaxLag) regardless of the window size. The counts are
// bit-sliced: plane b holds bit b of every lag's count, 64 lags to a
// word, and one update adds the 0/1 mask of the pairs gained and
// subtracts the mask of the pairs lost with a ripple carry. The masks
// compare one-byte sample codes eight at a time (see codeRing). A locked
// StreamPredictor does not read the counts, so it feeds the detector
// through push, which only appends to the window and leaves the counts
// and the codes stale. Every method that reads the counts first brings
// them up to date (catchUp), so callers always see equation (1) over the
// current window.
//
// Detector is not safe for concurrent use, and its count readers mutate
// it; wrap it if multiple goroutines feed or query the same stream.
type Detector struct {
	cfg      Config
	win      ring
	observed int64 // total samples ever observed

	// stale is the number of samples pushed since the counts last matched
	// the window, and validLen the window length they matched then. They
	// sit beside win and observed, the other fields push writes, so that
	// a locked observe touches as few cache lines as it can.
	stale    int
	validLen int

	// planes[w*nplanes+b] holds bit b of d(m) for the 64 lags of word w,
	// at the bit lagBit gives; nplanes bits hold any count up to
	// WindowSize-1.
	planes  []uint64
	nplanes int
	codes   codeRing

	// allowed holds, in the layout of planes, the largest count within
	// LockTolerance for every lag of a full window:
	// int(LockTolerance*(WindowSize-m)). It is read-only and may be
	// shared between detectors.
	allowed []uint64
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
	k := replayLimit(cfg)
	nplanes := planeCount(cfg)
	return &Detector{
		cfg:     cfg,
		win:     newRing(cfg.WindowSize, k),
		planes:  make([]uint64, nplanes*lagWords(cfg)),
		nplanes: nplanes,
		codes:   newCodeRing(cfg.WindowSize+k, 64*lagWords(cfg)),
		allowed: allowedTable(cfg),
	}
}

// replayLimit is the largest number of skipped count updates catchUp
// replays instead of rebuilding the counts, and so the number of evicted
// samples the window ring keeps. It is W/2 − MaxLag/4 (208 for the
// default configuration), about where replaying k updates, two masks
// each, costs as much as a rebuild of up to W one-mask updates, and at
// least 1 for every valid configuration, since MaxLag < W.
func replayLimit(cfg Config) int {
	return cfg.WindowSize/2 - cfg.MaxLag/4
}

// planeCount is the number of count planes: enough bits for any count,
// which is at most WindowSize-1.
func planeCount(cfg Config) int { return bits.Len(uint(cfg.WindowSize - 1)) }

// lagWords is the number of 64-lag words per plane.
func lagWords(cfg Config) int { return (cfg.MaxLag + 63) / 64 }

// lagBit returns the word and bit of lag m. Lag 64w+8g+j+1 sits at bit
// 8j+g of word w: bit g of byte j, so that eight 8-lane compares of
// consecutive samples fill a word with shifts alone (codeMask).
func lagBit(m int) (word int, bit uint) {
	l := m - 1
	return l >> 6, uint(8*(l&7) + (l>>3)&7)
}

// defaultAllowed is the allowed table of DefaultConfig. Every detector
// with the default WindowSize, MaxLag and LockTolerance shares it; it is
// never written after package initialization.
var defaultAllowed = allowedPlanes(DefaultConfig())

// allowedTable returns the allowed table for cfg: the shared default one
// when cfg has the default window, lags and tolerance, a fresh one
// otherwise. Only the default is shared, so snapshot configurations
// (untrusted input) cannot grow any global state.
func allowedTable(cfg Config) []uint64 {
	def := DefaultConfig()
	if cfg.WindowSize == def.WindowSize && cfg.MaxLag == def.MaxLag && cfg.LockTolerance == def.LockTolerance {
		return defaultAllowed
	}
	return allowedPlanes(cfg)
}

// allowedPlanes returns the bound int(tol*(W-m)) on d(m) that a tolerant
// period search applies over a full window, for every lag m, as count
// planes.
func allowedPlanes(cfg Config) []uint64 {
	nplanes := planeCount(cfg)
	planes := make([]uint64, nplanes*lagWords(cfg))
	for m := 1; m <= cfg.MaxLag; m++ {
		v := allowedCount(cfg.LockTolerance, cfg.WindowSize-m)
		w, bit := lagBit(m)
		for b := range nplanes {
			planes[w*nplanes+b] |= uint64(v>>b&1) << bit
		}
	}
	return planes
}

// allowedCount is the largest mismatch count within tolerance tol for a
// lag compared over p pairs.
func allowedCount(tol float64, p int) int { return int(tol * float64(p)) }

// Window returns a copy of the current window contents, oldest first.
func (d *Detector) Window() []int64 { return d.win.Snapshot() }

// Reset discards all state, returning the detector to its initial
// condition without reallocating.
func (d *Detector) Reset() {
	d.win.Reset()
	clear(d.planes)
	d.codes.reset()
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

// push appends one sample to the window without coding it or updating
// the counts, which become stale until the next catchUp. It is the
// locked StreamPredictor's observe: one store per sample.
func (d *Detector) push(x int64) {
	if d.stale == 0 {
		d.validLen = d.win.Len()
	}
	d.win.Push(x)
	d.observed++
	d.stale++
}

// catchUp brings stale counts up to date with the window, by whichever
// is cheaper: coding the skipped samples and replaying their incremental
// updates, which needs the samples they evicted (both rings keep
// replayLimit of them), or rebuilding the codes and counts from the
// window.
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
	n := d.win.Len()
	c := &d.codes
	a, b := d.win.Segments(n-k, n)
	for _, x := range a {
		c.add(x)
	}
	for _, x := range b {
		c.add(x)
	}
	if c.stuck() {
		// The window ring still holds every live sample: the last live
		// pushes.
		c.recode(d.win.Segments(n-c.live, n))
	}
	// The j-th skipped sample sits at index n-k+j; the window it was
	// pushed into held min(WindowSize, validLen+j) samples.
	for j := range k {
		d.advance(n-k+j, min(d.cfg.WindowSize, d.validLen+j))
	}
}

// rebuild codes the window from an empty dictionary and recomputes every
// count by replaying the window's updates into zeroed planes, with no
// eviction. Counts of lags the window is too short for stay zero.
func (d *Detector) rebuild() {
	clear(d.planes)
	n := d.win.Len()
	c := &d.codes
	c.next, c.live = n, n // n < size
	c.recode(d.win.Segments(0, n))
	for e := 1; e < n; e++ {
		d.advance(e, e)
	}
}

// advance applies the incremental count update for the sample at window
// index e, pushed into a window of prev samples: window[e-prev..e-1].
// Every sample up to index e is coded. The new sample forms one new pair
// per lag m, (window[e], window[e-m]); its mask has a bit for each lag
// whose pair differs. When that window was full, its oldest sample,
// window[e-prev], was evicted by the push; for every lag m the pair in
// which it is the older element, (window[e-prev+m], window[e-prev]),
// leaves the set of compared positions, and a second mask holds the lags
// of those pairs that differed. The counts then gain the lags set only in
// the first mask and lose those set only in the second. A mask word is
// 64 code compares, eight at a time, unless its sample is escape-coded:
// then it compares values.
func (d *Detector) advance(e, prev int) {
	c := &d.codes
	n := d.win.Len()
	span := len(c.buf) - c.size
	lim := min(d.cfg.MaxLag, prev)
	x := c.buf[c.slot(n-e)]
	// Read forward, buf[in:in+span] holds window[e-span..e-1]: the
	// newest byte is lag 1.
	in := c.slot(n - e + span)
	var xv int64
	if x == escapeCode {
		xv = d.win.At(e)
	}
	evict := prev == d.cfg.WindowSize
	var out, limOut int
	var y byte
	var yv int64
	if evict {
		// buf[out:out+span] holds window[e-prev+1..], starting at lag 1.
		y = c.buf[c.slot(n-e+prev)]
		out = c.slot(n - e + prev - 1)
		limOut = min(d.cfg.MaxLag, prev-1)
		if y == escapeCode {
			evicted, _ := d.win.Segments(e-prev, e-prev+1)
			yv = evicted[0]
		}
	}
	xs, ys := broadcast(x), broadcast(y)
	for lo, p := 0, d.planes; lo < max(lim, limOut); lo, p = lo+64, p[d.nplanes:] {
		var gain, loss uint64
		if lo < lim {
			if x != escapeCode {
				gain = bits.Reverse64(codeMask(c.buf[in+span-lo-64:], xs))
			} else {
				gain = d.valueGain(e, xv, lo, min(lo+64, lim))
			}
			gain &= lagMask(lim - lo)
		}
		if lo < limOut {
			if y != escapeCode {
				loss = codeMask(c.buf[out+lo:], ys)
			} else {
				loss = d.valueLoss(e-prev, yv, lo, min(lo+64, limOut))
			}
			loss &= lagMask(limOut - lo)
		}
		addLags(p[:d.nplanes], gain&^loss)
		subLags(p[:d.nplanes], loss&^gain)
	}
}

// valueGain returns the insertion mask of lags lo+1..hi, at most 64 of
// them, for window[e] = x, by comparing values.
func (d *Detector) valueGain(e int, x int64, lo, hi int) uint64 {
	// window[e-1-l] is lag l+1: read oldest-first, a and b run from lag
	// hi down to lag lo+1.
	a, b := d.win.Segments(e-hi, e-lo)
	if len(a) == 64 {
		return bits.Reverse64(valueMask(a, x))
	}
	var m uint64
	top := uint(hi - lo - 1)
	for i, v := range a {
		m |= b2u(v != x) << ((top - uint(i)) & 63)
	}
	top -= uint(len(a))
	for i, v := range b {
		m |= b2u(v != x) << ((top - uint(i)) & 63)
	}
	return transpose8(m)
}

// valueLoss returns the eviction mask of lags lo+1..hi, at most 64 of
// them, for window[o] = x, by comparing values; o may be evicted.
func (d *Detector) valueLoss(o int, x int64, lo, hi int) uint64 {
	// window[o+1+l] is lag l+1, read oldest-first.
	a, b := d.win.Segments(o+1+lo, o+1+hi)
	if len(a) == 64 {
		return valueMask(a, x)
	}
	var m uint64
	for i, v := range a {
		m |= b2u(v != x) << (uint(i) & 63)
	}
	for i, v := range b {
		m |= b2u(v != x) << (uint(len(a)+i) & 63)
	}
	return transpose8(m)
}

// valueMask is codeMask for values: the mask with the bit of lag k+1 set
// when s[k] differs from x, for the 64 values of s.
func valueMask(s []int64, x int64) uint64 {
	s = s[:64]
	var m uint64
	for g := range 8 {
		t := s[8*g : 8*g+8]
		m |= (b2u(t[0] != x) | b2u(t[1] != x)<<8 | b2u(t[2] != x)<<16 | b2u(t[3] != x)<<24 |
			b2u(t[4] != x)<<32 | b2u(t[5] != x)<<40 | b2u(t[6] != x)<<48 | b2u(t[7] != x)<<56) << g
	}
	return m
}

// b2u converts a comparison to 0 or 1. The compiler turns it into a
// flag-to-register move rather than a branch, which keeps the compare
// loops free of mispredictions on streams that mix hits and misses.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// broadcast returns code c in all eight bytes of a word.
func broadcast(c byte) uint64 { return uint64(c) * 0x0101010101010101 }

const (
	laneLow7 = 0x7f7f7f7f7f7f7f7f
	laneHigh = 0x8080808080808080
)

// laneNE sets the high bit of every byte of x that differs from the
// same byte of c, and clears every other bit. Adding 0x7f to a byte's
// low seven bits carries into its high bit exactly when they are not all
// zero, and never into the next byte.
func laneNE(x, c uint64) uint64 {
	v := x ^ c
	return ((v & laneLow7) + laneLow7 | v) & laneHigh
}

// codeMask compares the 64 codes of b[:64] with the broadcast code c and
// returns the mask with the bit of lag k+1 (lagBit) set when b[k]
// differs: load g holds bytes 8g..8g+7, and each byte's high bit moves
// to bit 8j+g.
func codeMask(b []byte, c uint64) uint64 {
	b = b[:64]
	return laneNE(binary.LittleEndian.Uint64(b[0:]), c)>>7 |
		laneNE(binary.LittleEndian.Uint64(b[8:]), c)>>6 |
		laneNE(binary.LittleEndian.Uint64(b[16:]), c)>>5 |
		laneNE(binary.LittleEndian.Uint64(b[24:]), c)>>4 |
		laneNE(binary.LittleEndian.Uint64(b[32:]), c)>>3 |
		laneNE(binary.LittleEndian.Uint64(b[40:]), c)>>2 |
		laneNE(binary.LittleEndian.Uint64(b[48:]), c)>>1 |
		laneNE(binary.LittleEndian.Uint64(b[56:]), c)
}

// transpose8 transposes x as an 8×8 bit matrix, byte j its row j: bit
// 8j+g moves to bit 8g+j. It maps a mask in lag order (bit l for lag
// l+1) to the lagBit layout and back.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	x ^= t ^ t<<28
	return x
}

// lagMasks[k] has the bits of the first k lags of a word set.
var lagMasks = func() (t [65]uint64) {
	for k := 1; k <= 64; k++ {
		t[k] = transpose8(1<<k - 1)
	}
	t[64] = ^uint64(0)
	return t
}()

// lagMask returns the mask of the first k > 0 lags of a word.
func lagMask(k int) uint64 { return lagMasks[min(k, 64)] }

// addLags adds 1 to the count of every lag in m: a ripple carry through
// the planes of one word, which stops when no carry is left.
func addLags(planes []uint64, m uint64) {
	for i := range planes {
		if m == 0 {
			return
		}
		planes[i], m = planes[i]^m, planes[i]&m
	}
}

// subLags subtracts 1 from the count of every lag in m, rippling the
// borrow. A count never goes below zero: a lost pair was gained before.
func subLags(planes []uint64, m uint64) {
	for i := range planes {
		if m == 0 {
			return
		}
		planes[i], m = planes[i]^m, ^planes[i]&m
	}
}

// count returns d(m) from the planes.
func (d *Detector) count(m int) int {
	w, bit := lagBit(m)
	c := 0
	for b, p := range d.planes[w*d.nplanes : (w+1)*d.nplanes] {
		c |= int(p>>bit&1) << b
	}
	return c
}

// firstLag returns the smallest lag set in mask, a word of lags lo+1.. .
func firstLag(lo int, mask uint64) int {
	return lo + 1 + bits.TrailingZeros64(transpose8(mask))
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
	return d.strictPeriod(d.searchLimit())
}

// strictPeriod returns the smallest lag up to lim with a zero count: a
// lag whose bit is clear in every plane.
func (d *Detector) strictPeriod(lim int) (int, bool) {
	for lo, p := 0, d.planes; lo < lim; lo, p = lo+64, p[d.nplanes:] {
		var any uint64
		for _, v := range p[:d.nplanes] {
			any |= v
		}
		if zero := ^any & lagMask(lim-lo); zero != 0 {
			return firstLag(lo, zero), true
		}
	}
	return 0, false
}

// lockPeriod is StreamPredictor's period search: the smallest strict lag
// (what Period returns) when there is one, otherwise the smallest lag m
// within the configured LockTolerance (d(m) <= int(LockTolerance*(n-m))).
// A strict lag is also within tolerance, so the smallest tolerant lag is
// never larger than the smallest strict one. Over a full window the
// tolerance test is one bit-sliced compare of the planes with the allowed
// table per word; over a shorter one, see tolerantPeriodShort.
func (d *Detector) lockPeriod() (period int, ok bool) {
	d.catchUp()
	lim := d.searchLimit()
	if m, ok := d.strictPeriod(lim); ok {
		return m, true
	}
	if d.win.Len() < d.cfg.WindowSize {
		return d.tolerantPeriodShort(lim)
	}
	for lo, p, t := 0, d.planes, d.allowed; lo < lim; lo, p, t = lo+64, p[d.nplanes:], t[d.nplanes:] {
		if ok := atMost(p[:d.nplanes], t[:d.nplanes]) & lagMask(lim-lo); ok != 0 {
			return firstLag(lo, ok), true
		}
	}
	return 0, false
}

// atMost compares the counts of one word with bounds in the same layout,
// from the top plane down, and returns the mask of the lags whose count
// does not exceed its bound. below holds the lags already found smaller,
// equal those with the same bits so far.
func atMost(counts, bounds []uint64) uint64 {
	bounds = bounds[:len(counts)]
	var below uint64
	equal := ^uint64(0)
	for b := len(counts) - 1; b >= 0; b-- {
		below |= equal & bounds[b] &^ counts[b]
		equal &^= bounds[b] ^ counts[b]
	}
	return below | equal
}

// tolerantPeriodShort is the tolerant search over a window of n <
// WindowSize samples, whose bound on d(m) differs from the allowed
// table. The largest bound any lag gets is int(tol*(n-1)); a bit-sliced
// compare with it keeps the lags that may pass, which are then checked
// in order against their own bound.
func (d *Detector) tolerantPeriodShort(lim int) (int, bool) {
	n := d.win.Len()
	tol := d.cfg.LockTolerance
	most := allowedCount(tol, n-1)
	var bounds [16]uint64 // nplanes <= bits.Len(maxWindowSize-1)
	for b := range d.nplanes {
		bounds[b] = -uint64(most >> b & 1)
	}
	for lo, p := 0, d.planes; lo < lim; lo, p = lo+64, p[d.nplanes:] {
		maybe := transpose8(atMost(p[:d.nplanes], bounds[:]) & lagMask(lim-lo))
		for ; maybe != 0; maybe &= maybe - 1 {
			m := lo + 1 + bits.TrailingZeros64(maybe)
			if d.count(m) <= allowedCount(tol, n-m) {
				return m, true
			}
		}
	}
	return 0, false
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
