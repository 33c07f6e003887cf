package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// repeatPattern builds a stream of n samples by cycling through pattern.
func repeatPattern(pattern []int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(), true},
		{"window too small", Config{WindowSize: 1, MaxLag: 1, MinRepeats: 1, ConfirmRuns: 1}, false},
		{"window at the cap", Config{WindowSize: maxWindowSize, MaxLag: 1, MinRepeats: 1, ConfirmRuns: 1}, true},
		{"window above the cap", Config{WindowSize: maxWindowSize + 1, MaxLag: 1, MinRepeats: 1, ConfirmRuns: 1}, false},
		{"lag zero", Config{WindowSize: 8, MaxLag: -1, MinRepeats: 1, ConfirmRuns: 1}, false},
		{"lag >= window", Config{WindowSize: 8, MaxLag: 8, MinRepeats: 1, ConfirmRuns: 1}, false},
		{"min repeats", Config{WindowSize: 8, MaxLag: 4, MinRepeats: -2, ConfirmRuns: 1}, false},
		{"confirm runs", Config{WindowSize: 8, MaxLag: 4, MinRepeats: 1, ConfirmRuns: -1}, false},
		{"hold down", Config{WindowSize: 8, MaxLag: 4, MinRepeats: 1, ConfirmRuns: 1, HoldDown: -1}, false},
		{"lock tolerance", Config{WindowSize: 8, MaxLag: 4, MinRepeats: 1, ConfirmRuns: 1, LockTolerance: 1.5}, false},
		{"small but valid", Config{WindowSize: 4, MaxLag: 2, MinRepeats: 1, ConfirmRuns: 1}, true},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() error=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestConfigWithDefaultsFillsZeroFields(t *testing.T) {
	got := Config{WindowSize: 32}.withDefaults()
	def := DefaultConfig()
	if got.WindowSize != 32 {
		t.Errorf("explicit WindowSize overwritten: %d", got.WindowSize)
	}
	if got.MaxLag != def.MaxLag || got.MinRepeats != def.MinRepeats ||
		got.ConfirmRuns != def.ConfirmRuns || got.HoldDown != def.HoldDown ||
		got.LockTolerance != def.LockTolerance {
		t.Errorf("defaults not applied: %+v", got)
	}
}

func TestNewDetectorPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDetector with MaxLag >= WindowSize should panic")
		}
	}()
	NewDetector(Config{WindowSize: 4, MaxLag: 10, MinRepeats: 1, ConfirmRuns: 1})
}

func TestDetectorConstantStreamHasPeriodOne(t *testing.T) {
	d := NewDetector(Config{WindowSize: 16, MaxLag: 8})
	for i := 0; i < 10; i++ {
		d.Observe(7)
	}
	p, ok := d.Period()
	if !ok || p != 1 {
		t.Fatalf("constant stream: period=%d ok=%v, want 1,true", p, ok)
	}
	v, ok := d.Predict(1)
	if !ok || v != 7 {
		t.Fatalf("prediction=%d,%v want 7,true", v, ok)
	}
}

func TestDetectorFindsSmallestPeriod(t *testing.T) {
	// Pattern of length 6 is also periodic with 12, 18, ...; the detector
	// must report the smallest lag.
	pattern := []int64{1, 2, 5, 7, 9, 2}
	d := NewDetector(Config{WindowSize: 64, MaxLag: 32})
	for _, x := range repeatPattern(pattern, 40) {
		d.Observe(x)
	}
	p, ok := d.Period()
	if !ok || p != len(pattern) {
		t.Fatalf("period=%d ok=%v, want %d,true", p, ok, len(pattern))
	}
}

func TestDetectorBTLikePeriod18(t *testing.T) {
	// Figure 1 of the paper: the sender stream of BT.9 at process 3 has
	// period 18 with senders {1, 2, 5, 7, 9} in a fixed order.
	pattern := []int64{1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 7}
	if len(pattern) != 18 {
		t.Fatal("test pattern must have length 18")
	}
	stream := repeatPattern(pattern, 200)
	p, ok := DetectPeriod(stream, DefaultConfig())
	if !ok || p != 18 {
		t.Fatalf("DetectPeriod=%d,%v want 18,true", p, ok)
	}
}

func TestDetectorNoPeriodInRandomStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDetector(Config{WindowSize: 64, MaxLag: 20})
	for i := 0; i < 500; i++ {
		d.Observe(rng.Int63n(1 << 40))
	}
	if p, ok := d.Period(); ok {
		t.Fatalf("random wide-range stream should have no period, got %d", p)
	}
}

func TestDetectorNeedsMinRepeats(t *testing.T) {
	d := NewDetector(Config{WindowSize: 64, MaxLag: 32, MinRepeats: 2})
	pattern := []int64{4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	// Feed one and a half repetitions: 15 samples, period 10 would need 20.
	for _, x := range repeatPattern(pattern, 15) {
		d.Observe(x)
	}
	if p, ok := d.Period(); ok {
		t.Fatalf("period reported too early: %d (only 1.5 repetitions seen)", p)
	}
	for _, x := range repeatPattern(pattern, 40)[15:] {
		d.Observe(x)
	}
	if p, ok := d.Period(); !ok || p != 10 {
		t.Fatalf("after enough repetitions period=%d,%v want 10,true", p, ok)
	}
}

func TestDetectorPredictMultiStep(t *testing.T) {
	pattern := []int64{10, 20, 30, 40}
	d := NewDetector(Config{WindowSize: 32, MaxLag: 16})
	stream := repeatPattern(pattern, 23) // ends mid-pattern
	for _, x := range stream {
		d.Observe(x)
	}
	for k := 1; k <= 9; k++ {
		want := pattern[(len(stream)+k-1)%len(pattern)]
		got, ok := d.Predict(k)
		if !ok || got != want {
			t.Errorf("Predict(%d)=%d,%v want %d,true", k, got, ok, want)
		}
	}
	if _, ok := d.Predict(0); ok {
		t.Error("Predict(0) should abstain")
	}
	if _, ok := d.Predict(-3); ok {
		t.Error("Predict(negative) should abstain")
	}
}

func TestDetectorPredictSeries(t *testing.T) {
	d := NewDetector(Config{WindowSize: 32, MaxLag: 8})
	for _, x := range repeatPattern([]int64{1, 2, 3}, 30) {
		d.Observe(x)
	}
	preds := d.PredictSeries(5)
	if len(preds) != 5 {
		t.Fatalf("PredictSeries returned %d items, want 5", len(preds))
	}
	want := []int64{1, 2, 3, 1, 2}
	for i, pr := range preds {
		if !pr.OK || pr.Value != want[i] || pr.Ahead != i+1 {
			t.Errorf("prediction %d = %+v, want value %d ahead %d", i, pr, want[i], i+1)
		}
	}
}

func TestDetectorDistanceMatchesEquationOne(t *testing.T) {
	// Hand-computed example: window [1 2 1 2 1 3], N=6.
	d := NewDetector(Config{WindowSize: 6, MaxLag: 4, MinRepeats: 1, ConfirmRuns: 1})
	for _, x := range []int64{1, 2, 1, 2, 1, 3} {
		d.Observe(x)
	}
	// lag 1: pairs (2,1)(1,2)(2,1)(1,2)(3,1) -> all differ -> 5
	// lag 2: pairs (1,1)(2,2)(1,1)(3,2)      -> 1 mismatch
	// lag 3: pairs (2,1)(1,2)(3,1)           -> 3
	// lag 4: pairs (1,1)(3,2)                -> 1
	want := map[int]int{1: 5, 2: 1, 3: 3, 4: 1}
	for m, w := range want {
		if got := d.Distance(m); got != w {
			t.Errorf("Distance(%d)=%d want %d", m, got, w)
		}
		if got := d.DistanceDirect(m); got != w {
			t.Errorf("DistanceDirect(%d)=%d want %d", m, got, w)
		}
	}
}

func TestDetectorDistancePanicsOutOfRange(t *testing.T) {
	d := NewDetector(Config{WindowSize: 8, MaxLag: 4})
	d.Observe(1)
	for _, m := range []int{0, -1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Distance(%d) should panic", m)
				}
			}()
			d.Distance(m)
		}()
	}
}

func TestDetectorReset(t *testing.T) {
	d := NewDetector(Config{WindowSize: 16, MaxLag: 8})
	for _, x := range repeatPattern([]int64{1, 2}, 12) {
		d.Observe(x)
	}
	if _, ok := d.Period(); !ok {
		t.Fatal("expected a period before reset")
	}
	d.Reset()
	if d.Len() != 0 || d.Observed() != 0 {
		t.Fatalf("reset did not clear state: len=%d observed=%d", d.Len(), d.Observed())
	}
	if _, ok := d.Period(); ok {
		t.Fatal("period should not survive a reset")
	}
	for m := 1; m <= 8; m++ {
		if d.Distance(m) != 0 {
			t.Fatalf("mismatch counts should be zero after reset, lag %d = %d", m, d.Distance(m))
		}
	}
}

func TestDetectorPeriodWithinTolerance(t *testing.T) {
	// A period-4 stream with a single corrupted sample inside the window.
	pattern := []int64{1, 2, 3, 4}
	stream := repeatPattern(pattern, 40)
	stream[30] = 99 // within the final 40-sample window
	d := NewDetector(Config{WindowSize: 40, MaxLag: 16})
	for _, x := range stream {
		d.Observe(x)
	}
	if _, ok := d.Period(); ok {
		t.Fatal("strict period should not be detected with a corrupted sample in-window")
	}
	p, ok := d.PeriodWithin(0.2)
	if !ok || p != 4 {
		t.Fatalf("PeriodWithin(0.2)=%d,%v want 4,true", p, ok)
	}
	// A negative tolerance is clamped to strict detection.
	if _, ok := d.PeriodWithin(-1); ok {
		t.Fatal("negative tolerance should behave like strict detection")
	}
}

func TestDetectorPeriodogramShape(t *testing.T) {
	d := NewDetector(Config{WindowSize: 32, MaxLag: 12})
	for _, x := range repeatPattern([]int64{5, 6, 7, 8}, 32) {
		d.Observe(x)
	}
	pg := d.Periodogram()
	if len(pg) != 13 {
		t.Fatalf("periodogram length=%d want 13", len(pg))
	}
	for m := 1; m <= 12; m++ {
		if m%4 == 0 && pg[m] != 0 {
			t.Errorf("lag %d (multiple of period) should have zero distance, got %d", m, pg[m])
		}
		if m%4 != 0 && pg[m] == 0 {
			t.Errorf("lag %d (not a multiple of period) should have non-zero distance", m)
		}
	}
}

func TestDetectPeriodEmptyAndShortStreams(t *testing.T) {
	if _, ok := DetectPeriod(nil, DefaultConfig()); ok {
		t.Error("empty stream should have no period")
	}
	if _, ok := DetectPeriod([]int64{1}, DefaultConfig()); ok {
		t.Error("single-sample stream should have no period")
	}
	if p, ok := DetectPeriod([]int64{3, 3}, DefaultConfig()); !ok || p != 1 {
		t.Errorf("two identical samples should give period 1, got %d,%v", p, ok)
	}
}

// Property: the incrementally maintained Distance always equals the direct
// recomputation, for every lag, on arbitrary streams and window sizes.
func TestDetectorIncrementalMatchesDirect(t *testing.T) {
	f := func(raw []uint8, winRaw, lagRaw uint8) bool {
		win := int(winRaw%30) + 2
		lag := int(lagRaw % uint8(win-1))
		if lag < 1 {
			lag = 1
		}
		d := NewDetector(Config{WindowSize: win, MaxLag: lag, MinRepeats: 1, ConfirmRuns: 1})
		for _, b := range raw {
			d.Observe(int64(b % 5)) // small alphabet so collisions occur
			for m := 1; m <= lag; m++ {
				if d.Distance(m) != d.DistanceDirect(m) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: when a strict period p is reported, predictions for +1..+2p
// exactly equal the continuation of the window's periodic extension.
func TestDetectorPredictionConsistentWithPeriod(t *testing.T) {
	f := func(patRaw []uint8, reps uint8) bool {
		if len(patRaw) == 0 {
			return true
		}
		if len(patRaw) > 10 {
			patRaw = patRaw[:10]
		}
		pattern := make([]int64, len(patRaw))
		for i, b := range patRaw {
			pattern[i] = int64(b % 7)
		}
		n := (int(reps%5) + 3) * len(pattern)
		stream := repeatPattern(pattern, n)
		d := NewDetector(Config{WindowSize: 64, MaxLag: 30})
		for _, x := range stream {
			d.Observe(x)
		}
		p, ok := d.Period()
		if !ok {
			// A shorter sub-period may not exist only if the window is too
			// small; with these bounds a period must be found.
			return len(pattern) > 30
		}
		// The reported period must divide into a consistent predictor: the
		// prediction for +k must equal the window extended periodically.
		win := d.Window()
		for k := 1; k <= 2*p; k++ {
			got, ok := d.Predict(k)
			if !ok {
				return false
			}
			want := win[len(win)-p+((k-1)%p)]
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the detected strict period is never larger than necessary —
// shifting the window by the reported period always yields zero mismatches
// (soundness of the period claim).
func TestDetectorPeriodSoundness(t *testing.T) {
	f := func(raw []uint8) bool {
		d := NewDetector(Config{WindowSize: 48, MaxLag: 20})
		for _, b := range raw {
			d.Observe(int64(b % 4))
			if p, ok := d.Period(); ok {
				if d.DistanceDirect(p) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDetectorObserve(b *testing.B) {
	d := NewDetector(DefaultConfig())
	pattern := []int64{1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(pattern[i%len(pattern)])
	}
}

func BenchmarkDetectorPredictFive(b *testing.B) {
	d := NewDetector(DefaultConfig())
	pattern := []int64{1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 7}
	for i := 0; i < 512; i++ {
		d.Observe(pattern[i%len(pattern)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 5; k++ {
			d.Predict(k)
		}
	}
}
