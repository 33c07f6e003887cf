package core

import (
	"runtime"
	"slices"
	"testing"
)

// periodicStream returns n samples of an exactly periodic stream with the
// given period.
func periodicStream(n, period int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i % period)
	}
	return out
}

// TestDetectorObserveZeroAllocs pins the detector's steady-state cost: the
// incremental mismatch update must never allocate.
func TestDetectorObserveZeroAllocs(t *testing.T) {
	d := NewDetector(DefaultConfig())
	stream := periodicStream(4*d.Config().WindowSize, 18)
	for _, x := range stream {
		d.Observe(x)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		d.Observe(stream[i%len(stream)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Detector.Observe allocates %.2f objects per call, want 0", allocs)
	}
}

// TestStreamPredictorObserveZeroAllocs pins the predictor's steady-state
// cost on a stable stream: once locked, observing must never allocate.
func TestStreamPredictorObserveZeroAllocs(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	stream := periodicStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	if p.State() != Locked {
		t.Fatal("predictor should be locked on a periodic stream after warm-up")
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p.Observe(stream[i%len(stream)])
		i++
	})
	if allocs != 0 {
		t.Errorf("StreamPredictor.Observe allocates %.2f objects per call, want 0", allocs)
	}
	if p.State() != Locked {
		t.Error("predictor lost its lock on a clean periodic stream")
	}
}

// TestStreamPredictorLearningObserveZeroAllocs covers the other steady
// state: a stream with no pattern keeps the predictor learning forever,
// and that path must not allocate either.
func TestStreamPredictorLearningObserveZeroAllocs(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	// A strictly increasing stream never shows a period.
	var x int64
	for i := 0; i < 4*p.cfg.WindowSize; i++ {
		p.Observe(x)
		x++
	}
	if p.State() != Learning {
		t.Fatal("predictor should still be learning on an aperiodic stream")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Observe(x)
		x++
	})
	if allocs != 0 {
		t.Errorf("learning-state Observe allocates %.2f objects per call, want 0", allocs)
	}
}

// TestStreamPredictorRelockZeroAllocs pins the relock path that noisy
// streams take continually: an unlock keeps the pattern's array, so the
// next lock's consensus vote writes into it instead of allocating.
func TestStreamPredictorRelockZeroAllocs(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	for _, x := range periodicStream(4*p.cfg.WindowSize, 18) {
		p.Observe(x)
	}
	if p.State() != Locked {
		t.Fatal("predictor should be locked on a periodic stream after warm-up")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.unlock()
		p.lock(18)
	})
	want := consensusPattern(nil, p.det.win.Unwrap(), 18, map[int64]int{})
	if allocs != 0 {
		t.Errorf("unlock + relock allocates %.2f objects, want 0", allocs)
	}
	if got := p.Pattern(); !slices.Equal(got, want) {
		t.Errorf("relocked pattern %v, want %v", got, want)
	}
}

// TestObserveZeroAllocsOnWideValues repeats the steady-state checks on the
// stream that makes the count updates and the period search do the most
// work: wide random values mismatch at every lag and are escape-coded, so
// every mask compares values and every learning observe searches all lags
// for a tolerant period. The restored predictor
// covers the detector RestoreStreamPredictor builds by hand.
func TestObserveZeroAllocsOnWideValues(t *testing.T) {
	fresh := NewStreamPredictor(DefaultConfig())
	stream := wideRandomStream(4*fresh.cfg.WindowSize, 2)
	for _, x := range stream {
		fresh.Observe(x)
	}
	restored, err := RestoreStreamPredictor(fresh.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*StreamPredictor{"fresh": fresh, "restored": restored} {
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			p.Observe(stream[i%len(stream)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s learning-state Observe allocates %.2f objects per call, want 0", name, allocs)
		}
		if p.State() != Learning {
			t.Errorf("%s predictor locked on wide random values", name)
		}
	}
}

// TestPredictSeriesIntoZeroAllocs pins the buffer-reuse contract of the
// prediction hot path.
func TestPredictSeriesIntoZeroAllocs(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	stream := periodicStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	buf := make([]Prediction, 0, 5)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = p.PredictSeriesInto(buf[:0], 5)
	})
	if allocs != 0 {
		t.Errorf("PredictSeriesInto with a reused buffer allocates %.2f objects per call, want 0", allocs)
	}
	if len(buf) != 5 {
		t.Fatalf("got %d predictions, want 5", len(buf))
	}
	for _, pr := range buf {
		if !pr.OK {
			t.Fatalf("locked predictor abstained: %+v", pr)
		}
	}
}

// TestPredictSetIntoZeroAllocs does the same for the order-free query.
func TestPredictSetIntoZeroAllocs(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	stream := periodicStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	buf := make([]int64, 0, 5)
	allocs := testing.AllocsPerRun(1000, func() {
		var ok bool
		buf, ok = p.PredictSetInto(buf[:0], 5)
		if !ok {
			t.Fatal("locked predictor abstained")
		}
	})
	if allocs != 0 {
		t.Errorf("PredictSetInto with a reused buffer allocates %.2f objects per call, want 0", allocs)
	}
}

// TestPredictSeriesIntoMatchesPredictSeries ties the Into variants to the
// allocating originals.
func TestPredictSeriesIntoMatchesPredictSeries(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	for _, x := range periodicStream(4*p.cfg.WindowSize, 7) {
		p.Observe(x)
	}
	plain := p.PredictSeries(5)
	into := p.PredictSeriesInto(nil, 5)
	if len(plain) != len(into) {
		t.Fatalf("length mismatch: %d vs %d", len(plain), len(into))
	}
	for i := range plain {
		if plain[i] != into[i] {
			t.Errorf("prediction %d differs: %+v vs %+v", i, plain[i], into[i])
		}
	}

	plainSet, okPlain := p.PredictSet(5)
	intoSet, okInto := p.PredictSetInto(nil, 5)
	if okPlain != okInto || len(plainSet) != len(intoSet) {
		t.Fatalf("set mismatch: (%v, %v) vs (%v, %v)", plainSet, okPlain, intoSet, okInto)
	}
	for i := range plainSet {
		if plainSet[i] != intoSet[i] {
			t.Errorf("set value %d differs: %d vs %d", i, plainSet[i], intoSet[i])
		}
	}
}

// predictorBudget is the most a default-configuration StreamPredictor may
// allocate from construction through locking onto a pattern: the window
// ring with its replay slots, the count planes, the code ring and its
// dictionary, the outcome ring, the pattern and the vote's scratch map.
// A dpd session holds two, one per stream, so a session's predictors stay
// within twice this. DESIGN §4 states the measured figure.
const predictorBudget = 9 << 10

// TestStreamPredictorMemoryBudget checks the per-predictor share of the
// per-session memory bound: every byte allocated by building a default
// predictor and warming it into the locked state on a period-18 stream.
// The allowed table is shared at the default configuration, so it is not
// part of the budget.
func TestStreamPredictorMemoryBudget(t *testing.T) {
	const n = 32
	stream := periodicStream(2*DefaultConfig().WindowSize, 18)
	preds := make([]*StreamPredictor, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range preds {
		preds[i] = NewStreamPredictor(DefaultConfig())
		for _, x := range stream {
			preds[i].Observe(x)
		}
	}
	runtime.ReadMemStats(&after)
	for _, p := range preds {
		if p.State() != Locked {
			t.Fatal("predictor did not lock on a periodic stream")
		}
	}
	perPredictor := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes per locked default predictor", perPredictor)
	if perPredictor > predictorBudget {
		t.Errorf("a locked default predictor allocated %d bytes, budget %d", perPredictor, predictorBudget)
	}
	if &preds[0].det.allowed[0] != &preds[n-1].det.allowed[0] {
		t.Error("default-configuration detectors do not share one allowed table")
	}
}

// worstCasePredictorBudget is the most a default-configuration
// StreamPredictor may allocate from construction through 4·WindowSize
// distinct values: the predictorBudget items less the pattern, plus the
// code dictionary grown to its full 255 codes. DESIGN §4 states the
// measured figure; the budget leaves about 12% above it.
const worstCasePredictorBudget = 16 << 10

// TestStreamPredictorWorstCaseMemoryBudget warms default predictors on
// distinct values, which fill the code dictionary and then take the
// escape code, and checks every byte allocated on the way.
func TestStreamPredictorWorstCaseMemoryBudget(t *testing.T) {
	const n = 32
	stream := make([]int64, 4*DefaultConfig().WindowSize)
	for i := range stream {
		stream[i] = 1<<33 + 7919*int64(i)
	}
	preds := make([]*StreamPredictor, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range preds {
		preds[i] = NewStreamPredictor(DefaultConfig())
		for _, x := range stream {
			preds[i].Observe(x)
		}
	}
	runtime.ReadMemStats(&after)
	for _, p := range preds {
		if c := &p.det.codes; len(c.value) != escapeCode || c.escapes == 0 {
			t.Fatalf("dictionary of %d codes and %d escape-coded samples, want %d and some", len(c.value), c.escapes, escapeCode)
		}
	}
	perPredictor := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes per default predictor after %d distinct values", perPredictor, len(stream))
	if perPredictor > worstCasePredictorBudget {
		t.Errorf("a default predictor fed distinct values allocated %d bytes, budget %d", perPredictor, worstCasePredictorBudget)
	}
}

// TestAllowedTableSharedOnlyAtDefault checks that a non-default window,
// lag range or tolerance — which a snapshot, untrusted input, may carry —
// gets a table of its own with the right bound for every lag, and never
// the shared one.
func TestAllowedTableSharedOnlyAtDefault(t *testing.T) {
	def := DefaultConfig()
	for _, cfg := range []Config{
		{WindowSize: def.WindowSize, MaxLag: def.MaxLag, LockTolerance: 0.1},
		{WindowSize: 64, MaxLag: def.MaxLag / 4, LockTolerance: def.LockTolerance},
		{WindowSize: def.WindowSize, MaxLag: def.MaxLag - 1, LockTolerance: def.LockTolerance},
	} {
		table := allowedTable(cfg)
		if want := planeCount(cfg) * lagWords(cfg); len(table) != want {
			t.Fatalf("%+v: table of %d words, want %d", cfg, len(table), want)
		}
		if &table[0] == &defaultAllowed[0] {
			t.Errorf("%+v: got the shared default table", cfg)
		}
		d := &Detector{planes: table, nplanes: planeCount(cfg)}
		for m := 1; m <= cfg.MaxLag; m++ {
			if got, want := d.count(m), int(cfg.LockTolerance*float64(cfg.WindowSize-m)); got != want {
				t.Fatalf("%+v: bound of lag %d = %d, want %d", cfg, m, got, want)
			}
		}
	}
}
