package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// refRing and refDetector are a verbatim copy of the modulo-indexed
// detector the split-ring implementation replaced: every window read goes
// through At with a bounds check and a modulo, the period searches are
// separate scans with a float multiply per lag, and the StreamPredictor
// search is strict-then-tolerant as two calls. They exist only as the
// oracle for the differential tests below.
type refRing struct {
	buf   []int64
	head  int
	count int
}

func (r *refRing) Full() bool { return r.count == len(r.buf) }

func (r *refRing) Push(x int64) {
	if r.count == len(r.buf) {
		r.buf[r.head] = x
		r.head = (r.head + 1) % len(r.buf)
		return
	}
	r.buf[(r.head+r.count)%len(r.buf)] = x
	r.count++
}

func (r *refRing) At(i int) int64 {
	if i < 0 || i >= r.count {
		panic("ref ring index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

type refDetector struct {
	cfg      Config
	win      refRing
	mismatch []int
}

func newRefDetector(cfg Config) *refDetector {
	return &refDetector{
		cfg:      cfg,
		win:      refRing{buf: make([]int64, cfg.WindowSize)},
		mismatch: make([]int, cfg.MaxLag+1),
	}
}

func (d *refDetector) Observe(x int64) {
	n := d.win.count
	if d.win.Full() {
		for m := 1; m <= d.cfg.MaxLag && m < n; m++ {
			if d.win.At(m) != d.win.At(0) {
				d.mismatch[m]--
			}
		}
	}
	d.win.Push(x)
	n = d.win.count
	for m := 1; m <= d.cfg.MaxLag && m < n; m++ {
		if x != d.win.At(n-1-m) {
			d.mismatch[m]++
		}
	}
}

func (d *refDetector) periodWithTolerance(tol float64) (int, bool) {
	n := d.win.count
	for m := 1; m <= d.cfg.MaxLag && m < n; m++ {
		if n < d.cfg.MinRepeats*m {
			break
		}
		p := n - m
		if p <= 0 {
			break
		}
		if d.mismatch[m] <= int(tol*float64(p)) {
			return m, true
		}
	}
	return 0, false
}

func (d *refDetector) Period() (int, bool) { return d.periodWithTolerance(0) }

// lockPeriod is the old StreamPredictor.searchPeriod.
func (d *refDetector) lockPeriod() (int, bool) {
	if period, ok := d.Period(); ok {
		return period, true
	}
	if d.cfg.LockTolerance > 0 {
		return d.periodWithTolerance(d.cfg.LockTolerance)
	}
	return 0, false
}

func (d *refDetector) Predict(k int) (int64, bool) {
	if k < 1 {
		return 0, false
	}
	m, ok := d.Period()
	if !ok {
		return 0, false
	}
	n := d.win.count
	idx := n - m + ((k - 1) % m)
	if idx < 0 || idx >= n {
		return 0, false
	}
	return d.win.At(idx), true
}

func (d *refDetector) Window() []int64 {
	out := make([]int64, d.win.count)
	for i := range out {
		out[i] = d.win.At(i)
	}
	return out
}

// refConsensusPattern is the consensus vote before the majority
// shortcut: a counting map per phase, then a newest-first walk keeping
// the first value with a strictly greater count.
func refConsensusPattern(win []int64, period int) []int64 {
	pattern := make([]int64, period)
	for ph := 0; ph < period; ph++ {
		counts := map[int64]int{}
		for i := ph; i < len(win); i += period {
			counts[win[i]]++
		}
		best, bestCount := int64(0), -1
		last := ph + ((len(win)-1-ph)/period)*period
		for i := last; i >= 0; i -= period {
			if c := counts[win[i]]; c > bestCount {
				best, bestCount = win[i], c
			}
		}
		pattern[ph] = best
	}
	return pattern
}

// TestConsensusPatternMatchesReference compares the vote with the
// reference on clean, sparsely perturbed and heavily perturbed windows,
// so both the majority shortcut and the full vote (ties included) are
// exercised.
func TestConsensusPatternMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	scratch := map[int64]int{}
	for trial := 0; trial < 2000; trial++ {
		period := 1 + r.Intn(24)
		win := make([]int64, period+r.Intn(200))
		noise := []int{0, 20, 2}[trial%3] // percent of samples replaced
		for i := range win {
			win[i] = int64(i%period) * 7
			if r.Intn(100) < noise {
				win[i] = int64(r.Intn(3))
			}
		}
		got, want := consensusPattern(nil, win, period, scratch), refConsensusPattern(win, period)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("period %d, window %v: got %v, want %v", period, win, got, want)
			}
		}
	}
}

// refTolerances are the lock tolerances every differential run covers.
var refTolerances = []float64{0, 0.1, 0.2, 0.5}

// compareWithRef checks every query of d against ref after one sample.
func compareWithRef(d *Detector, ref *refDetector) error {
	for m := 1; m <= d.cfg.MaxLag; m++ {
		if got, want := d.Distance(m), ref.mismatch[m]; got != want {
			return fmt.Errorf("Distance(%d) = %d, want %d", m, got, want)
		}
	}
	gp, gok := d.Period()
	wp, wok := ref.Period()
	if gp != wp || gok != wok {
		return fmt.Errorf("Period() = %d,%v, want %d,%v", gp, gok, wp, wok)
	}
	for _, tol := range refTolerances {
		gp, gok := d.PeriodWithin(tol)
		wp, wok := ref.periodWithTolerance(tol)
		if gp != wp || gok != wok {
			return fmt.Errorf("PeriodWithin(%g) = %d,%v, want %d,%v", tol, gp, gok, wp, wok)
		}
	}
	gp, gok = d.lockPeriod()
	wp, wok = ref.lockPeriod()
	if gp != wp || gok != wok {
		return fmt.Errorf("lockPeriod() (tolerance %g) = %d,%v, want %d,%v", d.cfg.LockTolerance, gp, gok, wp, wok)
	}
	series := d.PredictSeriesInto(nil, 5)
	for k := 1; k <= 5; k++ {
		gv, gok := d.Predict(k)
		wv, wok := ref.Predict(k)
		if gv != wv || gok != wok {
			return fmt.Errorf("Predict(%d) = %d,%v, want %d,%v", k, gv, gok, wv, wok)
		}
		if want := (Prediction{Ahead: k, Value: wv, OK: wok}); series[k-1] != want {
			return fmt.Errorf("PredictSeriesInto[%d] = %+v, want %+v", k-1, series[k-1], want)
		}
	}
	gw, ww := d.Window(), ref.Window()
	if len(gw) != len(ww) {
		return fmt.Errorf("Window() has %d samples, want %d", len(gw), len(ww))
	}
	for i := range gw {
		if gw[i] != ww[i] {
			return fmt.Errorf("Window()[%d] = %d, want %d", i, gw[i], ww[i])
		}
	}
	return nil
}

// refStreams returns the differential inputs for a window of size w: a
// small-alphabet stream (many equal pairs, so counts go up and down), a
// wide-value stream (almost every pair differs), a noisy periodic
// stream (strict and tolerant periods both occur) and a cycle stream: a
// 300-value cycle, more values than the code dictionary holds once the
// window and its replay slots exceed 255 samples, then a period-7
// stream, on which the codes come back. Each is long enough for the ring
// head to visit every slot several times.
func refStreams(w int, seed int64) map[string][]int64 {
	r := rand.New(rand.NewSource(seed))
	n := 4*w + 7
	small := make([]int64, n)
	wide := make([]int64, n)
	noisy := make([]int64, n)
	period := 1 + r.Intn(max(1, w/2))
	for i := 0; i < n; i++ {
		small[i] = int64(r.Intn(3))
		wide[i] = r.Int63() - r.Int63()
		noisy[i] = int64(i % period)
		if r.Intn(10) == 0 {
			noisy[i] = int64(r.Intn(4))
		}
	}
	cycle := cycleThenPeriodic(300, 1, 0)
	for len(cycle) < n/2 {
		cycle = append(cycle, cycle[:300]...)
	}
	cycle = append(cycle[:n/2], cycleThenPeriodic(0, 0, n-n/2)...)
	return map[string][]int64{"small": small, "wide": wide, "noisy": noisy, "cycle": cycle}
}

// runAgainstRef feeds stream to a fresh detector and reference built from
// cfg (LockTolerance set per detector) and compares them after every
// sample. It also checks the stream drove the full ring's head through
// every slot, so each wrap position of the window's reads was exercised.
// It returns whether any sample was escape-coded, and whether the last
// one still was.
func runAgainstRef(t *testing.T, cfg Config, name string, stream []int64) (escaped, escapedAtEnd bool) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	dets := make([]*Detector, len(refTolerances))
	refs := make([]*refDetector, len(refTolerances))
	for i, tol := range refTolerances {
		c := cfg
		c.LockTolerance = tol
		dets[i], refs[i] = newDetector(c), newRefDetector(c)
	}
	heads := make([]bool, len(dets[0].win.buf))
	for step, x := range stream {
		for i := range dets {
			dets[i].Observe(x)
			refs[i].Observe(x)
			if err := compareWithRef(dets[i], refs[i]); err != nil {
				t.Fatalf("%+v, %s stream, tolerance %g, after sample %d: %v", cfg, name, refTolerances[i], step, err)
			}
		}
		if dets[0].win.Full() {
			heads[dets[0].win.head] = true
		}
		escapedAtEnd = dets[0].codes.escapes > 0
		escaped = escaped || escapedAtEnd
	}
	for h, seen := range heads {
		if !seen {
			t.Fatalf("%+v, %s stream: full ring never had its head at slot %d", cfg, name, h)
		}
	}
	return escaped, escapedAtEnd
}

// TestDetectorMatchesReferenceSmallConfigs runs the detector beside the
// modulo-ring reference for every window size 2..33, every
// MaxLag below it and MinRepeats 1..3.
func TestDetectorMatchesReferenceSmallConfigs(t *testing.T) {
	for w := 2; w <= 33; w++ {
		for lag := 1; lag < w; lag++ {
			for rep := 1; rep <= 3; rep++ {
				cfg := Config{WindowSize: w, MaxLag: lag, MinRepeats: rep, ConfirmRuns: 1}
				for name, stream := range refStreams(w, int64(w*1000+lag*10+rep)) {
					runAgainstRef(t, cfg, name, stream)
				}
			}
		}
	}
}

// TestDetectorMatchesReferenceDefaultConfig does the same at the
// evaluation geometry (window 512, lags up to 192), where the cycle
// stream runs the escape path.
func TestDetectorMatchesReferenceDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	for name, stream := range refStreams(cfg.WindowSize, 7) {
		escaped, escapedAtEnd := runAgainstRef(t, cfg, name, stream)
		// The cycle stream crosses 255 live values and comes back.
		if name == "cycle" && (!escaped || escapedAtEnd) {
			t.Errorf("cycle stream: escape-coded samples seen %v, at the end %v; want true, false", escaped, escapedAtEnd)
		}
	}
	// The constructor's defaulting path builds the same detector.
	d, ref := NewDetector(Config{}), newRefDetector(cfg)
	for step, x := range refStreams(cfg.WindowSize, 8)["noisy"] {
		d.Observe(x)
		ref.Observe(x)
		if err := compareWithRef(d, ref); err != nil {
			t.Fatalf("NewDetector(Config{}) after sample %d: %v", step, err)
		}
	}
}

// TestStreamPredictorSeriesMatchesPerStepPredict pins the once-per-query
// period lookup of the series queries: in both lock states they return
// exactly what one Predict(k) call per step returns.
func TestStreamPredictorSeriesMatchesPerStepPredict(t *testing.T) {
	for name, stream := range refStreams(64, 3) {
		p := NewStreamPredictor(Config{WindowSize: 64, MaxLag: 24})
		states := map[LockState]bool{}
		for step, x := range stream {
			p.Observe(x)
			states[p.State()] = true
			for count := 0; count <= 5; count++ {
				series := p.PredictSeriesInto(nil, count)
				set, setOK := p.PredictSetInto(nil, count)
				var want []int64
				wantOK := true
				for k := 1; k <= count; k++ {
					v, ok := p.Predict(k)
					if series[k-1] != (Prediction{Ahead: k, Value: v, OK: ok}) {
						t.Fatalf("%s stream, sample %d, state %v: series[%d] = %+v, Predict(%d) = %d,%v",
							name, step, p.State(), k-1, series[k-1], k, v, ok)
					}
					if !ok {
						wantOK = false
					}
					want = append(want, v)
				}
				if setOK != wantOK {
					t.Fatalf("%s stream, sample %d: PredictSetInto ok = %v, want %v", name, step, setOK, wantOK)
				}
				if setOK {
					for i := range want {
						if set[i] != want[i] {
							t.Fatalf("%s stream, sample %d: set[%d] = %d, want %d", name, step, i, set[i], want[i])
						}
					}
				}
			}
		}
		if name == "noisy" && !states[Locked] {
			t.Errorf("%s stream never locked, so the locked series path went untested", name)
		}
	}
}
