package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLockStateString(t *testing.T) {
	if Learning.String() != "learning" || Locked.String() != "locked" {
		t.Error("unexpected LockState strings")
	}
	if LockState(42).String() != "unknown" {
		t.Error("out-of-range LockState should stringify to unknown")
	}
}

func TestStreamPredictorLocksOnCleanStream(t *testing.T) {
	p := NewStreamPredictor(Config{WindowSize: 64, MaxLag: 32})
	pattern := []int64{3, 1, 4, 1, 5, 9}
	for _, x := range repeatPattern(pattern, 60) {
		p.Observe(x)
	}
	if p.State() != Locked {
		t.Fatalf("predictor should be locked after 10 repetitions, state=%v", p.State())
	}
	period, ok := p.Period()
	if !ok || period != len(pattern) {
		t.Fatalf("period=%d,%v want %d,true", period, ok, len(pattern))
	}
	locked := p.Pattern()
	if len(locked) != len(pattern) {
		t.Fatalf("locked pattern length=%d want %d", len(locked), len(pattern))
	}
	c := p.Counters()
	if c.Locks != 1 || c.Unlocks != 0 {
		t.Errorf("counters=%+v want exactly one lock and no unlocks", c)
	}
	if c.Observed != 60 {
		t.Errorf("observed=%d want 60", c.Observed)
	}
}

func TestStreamPredictorPredictsCleanStreamPerfectly(t *testing.T) {
	p := NewStreamPredictor(Config{WindowSize: 64, MaxLag: 32})
	pattern := []int64{10, 20, 30}
	stream := repeatPattern(pattern, 300)
	warmup := 30
	for i, x := range stream {
		if i >= warmup {
			// Before observing stream[i], Predict(k) refers to stream[i+k-1].
			for k := 1; k <= 5; k++ {
				idx := i + k - 1
				if idx >= len(stream) {
					continue
				}
				pred, ok := p.Predict(k)
				if !ok {
					t.Fatalf("at index %d predictor abstained for +%d after warmup", i, k)
				}
				if pred != stream[idx] {
					t.Fatalf("at index %d, +%d prediction=%d want %d", i, k, pred, stream[idx])
				}
			}
		}
		p.Observe(x)
	}
}

// TestStreamPredictorForwardAccuracy measures exactly what the evaluation
// harness measures: before observing sample i, ask for +1..+5; the +k
// prediction refers to sample i+k-1.
func TestStreamPredictorForwardAccuracy(t *testing.T) {
	p := NewStreamPredictor(Config{WindowSize: 64, MaxLag: 32})
	pattern := []int64{7, 8, 9, 10, 11}
	stream := repeatPattern(pattern, 500)
	correct := make([]int, 6)
	total := make([]int, 6)
	for i := 0; i < len(stream); i++ {
		for k := 1; k <= 5; k++ {
			idx := i + k - 1
			if idx >= len(stream) {
				continue
			}
			v, ok := p.Predict(k)
			total[k]++
			if ok && v == stream[idx] {
				correct[k]++
			}
		}
		p.Observe(stream[i])
	}
	for k := 1; k <= 5; k++ {
		acc := float64(correct[k]) / float64(total[k])
		if acc < 0.9 {
			t.Errorf("+%d accuracy %.3f < 0.9 on a perfectly periodic stream", k, acc)
		}
	}
}

func TestStreamPredictorSurvivesIsolatedPerturbation(t *testing.T) {
	cfg := Config{WindowSize: 64, MaxLag: 32, HoldDown: 4}
	p := NewStreamPredictor(cfg)
	pattern := []int64{1, 2, 3, 4, 5, 6}
	stream := repeatPattern(pattern, 200)
	// Swap two adjacent samples deep into the stream — the kind of
	// physical-level reordering Figure 2 of the paper shows.
	stream[120], stream[121] = stream[121], stream[120]
	for _, x := range stream {
		p.Observe(x)
	}
	if p.State() != Locked {
		t.Fatalf("a single swap must not unlock the predictor (hold-down), state=%v", p.State())
	}
	c := p.Counters()
	if c.Unlocks != 0 {
		t.Errorf("unlocks=%d want 0", c.Unlocks)
	}
	if c.MissesWhile == 0 || c.MissesWhile > 4 {
		t.Errorf("expected a couple of misses from the swap, got %d", c.MissesWhile)
	}
}

func TestStreamPredictorRelearnsAfterPatternChange(t *testing.T) {
	cfg := Config{WindowSize: 64, MaxLag: 32, HoldDown: 3, ConfirmRuns: 2}
	p := NewStreamPredictor(cfg)
	first := repeatPattern([]int64{1, 2, 3}, 120)
	second := repeatPattern([]int64{40, 50, 60, 70}, 200)
	for _, x := range first {
		p.Observe(x)
	}
	if p.State() != Locked {
		t.Fatal("should be locked on the first pattern")
	}
	for _, x := range second {
		p.Observe(x)
	}
	if p.State() != Locked {
		t.Fatal("should have relocked on the second pattern")
	}
	period, _ := p.Period()
	if period != 4 {
		t.Fatalf("period after relearn=%d want 4", period)
	}
	c := p.Counters()
	// The transition through the mixed window may cause more than one
	// lock/unlock cycle; what matters is that at least one relearn
	// happened and the predictor ends up locked on the new pattern.
	if c.Unlocks < 1 || c.Locks < 2 {
		t.Errorf("locks=%d unlocks=%d want >=2 and >=1", c.Locks, c.Unlocks)
	}
	// Once relocked, predictions must follow the new pattern.
	preds, ok := p.PredictSet(4)
	if !ok {
		t.Fatal("PredictSet should succeed while locked")
	}
	seen := map[int64]bool{}
	for _, v := range preds {
		seen[v] = true
	}
	for _, want := range []int64{40, 50, 60, 70} {
		if !seen[want] {
			t.Errorf("PredictSet(4)=%v missing %d", preds, want)
		}
	}
}

func TestStreamPredictorAbstainsBeforeLearning(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	if _, ok := p.Predict(1); ok {
		t.Error("fresh predictor must abstain")
	}
	if _, ok := p.PredictSet(5); ok {
		t.Error("fresh predictor must abstain from PredictSet")
	}
	if p.Pattern() != nil {
		t.Error("fresh predictor must have no pattern")
	}
	if _, ok := p.Predict(0); ok {
		t.Error("Predict(0) must abstain")
	}
	p.Observe(1)
	p.Observe(2)
	if preds := p.PredictSeries(3); len(preds) != 3 {
		t.Errorf("PredictSeries length=%d want 3", len(preds))
	}
}

func TestStreamPredictorReset(t *testing.T) {
	p := NewStreamPredictor(Config{WindowSize: 32, MaxLag: 16})
	for _, x := range repeatPattern([]int64{1, 2}, 40) {
		p.Observe(x)
	}
	if p.State() != Locked {
		t.Fatal("should be locked before reset")
	}
	p.Reset()
	if p.State() != Learning {
		t.Error("state after reset should be learning")
	}
	if p.Counters() != (Counters{}) {
		t.Errorf("counters after reset=%+v want zero", p.Counters())
	}
	if _, ok := p.Predict(1); ok {
		t.Error("predictions must not survive a reset")
	}
}

func TestStreamPredictorLocksOnNoisyStreamWithTolerance(t *testing.T) {
	// A permissive relearn threshold keeps the predictor locked through
	// bursts of swaps; the default (stricter) threshold is exercised by
	// the workload-level tests.
	cfg := Config{WindowSize: 128, MaxLag: 32, LockTolerance: 0.15, HoldDown: 8, RelearnMissRate: 0.45}
	p := NewStreamPredictor(cfg)
	rng := rand.New(rand.NewSource(11))
	pattern := []int64{2, 4, 6, 8, 10, 12}
	stream := repeatPattern(pattern, 600)
	// Perturb ~5% of samples by swapping with a neighbour.
	for i := 1; i < len(stream); i++ {
		if rng.Float64() < 0.05 {
			stream[i-1], stream[i] = stream[i], stream[i-1]
		}
	}
	hits, total := 0, 0
	for i, x := range stream {
		if i > 100 && i+1 < len(stream) {
			if v, ok := p.Predict(1); ok {
				total++
				if v == stream[i] {
					hits++
				}
			} else {
				total++
			}
		}
		p.Observe(x)
	}
	if total == 0 {
		t.Fatal("no predictions were scored")
	}
	acc := float64(hits) / float64(total)
	if acc < 0.6 {
		t.Errorf("accuracy on mildly noisy stream = %.3f, want >= 0.6", acc)
	}
}

func TestStreamPredictorRecoversFromSpuriousConstantPrefix(t *testing.T) {
	// The BT sender stream starts with a few identical setup messages
	// before the iterative pattern begins. A naive predictor locks onto
	// "period 1, always the same sender" and — because the real pattern
	// still contains that value — never accumulates enough *consecutive*
	// misses to trigger the hold-down. The miss-rate relearn trigger must
	// recover from this.
	stream := append([]int64{2, 2, 2}, repeatPattern([]int64{2, 2, 1, 1, 0, 0}, 400)...)
	p := NewStreamPredictor(DefaultConfig())
	hits, total := 0, 0
	for i, x := range stream {
		if i >= 100 {
			total++
			if v, ok := p.Predict(1); ok && v == x {
				hits++
			}
		}
		p.Observe(x)
	}
	acc := float64(hits) / float64(total)
	if acc < 0.9 {
		t.Fatalf("accuracy after the constant prefix = %.3f, want >= 0.9 (counters %+v)", acc, p.Counters())
	}
	if per, ok := p.Period(); !ok || per != 6 {
		t.Errorf("final period=%d,%v want 6", per, ok)
	}
}

func TestMissRateRelearnDisabledKeepsOldBehaviour(t *testing.T) {
	// With RelearnWindow disabled the predictor keeps the spurious lock,
	// documenting why the trigger exists.
	cfg := DefaultConfig()
	cfg.RelearnWindow = -1 // negative disables; 0 would take the default
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative RelearnWindow should fail validation")
	}
}

func TestConsensusPatternMajorityVote(t *testing.T) {
	// Window of 3 repetitions of period 4, with one corrupted sample.
	win := []int64{
		1, 2, 3, 4,
		1, 9, 3, 4, // corrupted second element
		1, 2, 3, 4,
	}
	got := consensusPattern(nil, win, 4, map[int64]int{})
	want := []int64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("consensusPattern=%v want %v", got, want)
		}
	}
}

func TestConsensusPatternTieBreaksTowardRecent(t *testing.T) {
	// Exactly two repetitions disagree at phase 1: values 7 (older) and 9
	// (newer). The tie must go to the more recent value.
	win := []int64{1, 7, 3, 1, 9, 3}
	got := consensusPattern(nil, win, 3, map[int64]int{})
	if got[1] != 9 {
		t.Fatalf("tie should prefer the most recent value, got %v", got)
	}
}

// Property: on any exactly periodic stream long enough to lock, the locked
// pattern reproduces the stream: predictions +1..+period are exactly the
// upcoming samples.
func TestStreamPredictorExactOnPeriodicStreams(t *testing.T) {
	f := func(patRaw []uint8) bool {
		if len(patRaw) == 0 || len(patRaw) > 12 {
			return true
		}
		pattern := make([]int64, len(patRaw))
		for i, b := range patRaw {
			pattern[i] = int64(b % 9)
		}
		p := NewStreamPredictor(Config{WindowSize: 64, MaxLag: 24})
		n := 12 * len(pattern)
		stream := repeatPattern(pattern, n+len(pattern))
		for i := 0; i < n; i++ {
			p.Observe(stream[i])
		}
		if p.State() != Locked {
			// The true smallest period may be a divisor of len(pattern);
			// either way the predictor must have locked by now.
			return false
		}
		for k := 1; k <= len(pattern); k++ {
			v, ok := p.Predict(k)
			if !ok || v != stream[n+k-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStreamPredictorObservePredict(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	pattern := []int64{1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(pattern[i%len(pattern)])
		for k := 1; k <= 5; k++ {
			p.Predict(k)
		}
	}
}
