package core

import (
	"math/rand"
	"testing"
)

// The microbenchmarks below pin the per-observation cost of the DPD hot
// path. Run them with -benchmem: the steady-state observe and predict
// paths must report 0 allocs/op (enforced by alloc_test.go), and ns/op
// tracks the O(MaxLag) incremental update the paper's Section 4 design
// calls for.

// benchStream returns up to n samples of an exactly periodic stream: a
// whole number of periods, so a benchmark that wraps around it sees a
// seamless pattern and a locked predictor never misses.
func benchStream(n, period int) []int64 {
	out := make([]int64, n-n%period)
	for i := range out {
		out[i] = int64(i % period)
	}
	return out
}

// BenchmarkDetectorObserveFullWindow measures the incremental mismatch
// update once the window has wrapped, i.e. with the eviction half of the
// update active (the existing BenchmarkDetectorObserve starts cold).
func BenchmarkDetectorObserveFullWindow(b *testing.B) {
	d := NewDetector(DefaultConfig())
	stream := benchStream(4*d.Config().WindowSize, 18)
	for _, x := range stream {
		d.Observe(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(stream[i%len(stream)])
	}
}

// BenchmarkStreamPredictorObserveLocked measures the steady-state observe
// path of a locked predictor: expectation check, outcome ring update and
// window push.
func BenchmarkStreamPredictorObserveLocked(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	stream := benchStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	if p.State() != Locked {
		b.Fatal("predictor should be locked after warm-up")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(stream[i%len(stream)])
	}
	b.StopTimer()
	if c := p.Counters(); c.Unlocks != 0 {
		b.Fatalf("predictor unlocked %d times on a seamless periodic stream", c.Unlocks)
	}
}

// BenchmarkStreamPredictorObserveLearning measures the steady-state
// observe path of a predictor that never finds a pattern: the detector
// feed plus the fused strict-then-tolerant period search over every lag.
// Random values drawn from a wide range make every lag mismatch, so the
// search always scans to MaxLag.
func BenchmarkStreamPredictorObserveLearning(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	stream := wideRandomStream(4*p.cfg.WindowSize, 1)
	for _, x := range stream {
		p.Observe(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(stream[i%len(stream)])
	}
	b.StopTimer()
	if c := p.Counters(); c.Locks != 0 {
		b.Fatalf("predictor locked %d times on a wide random stream", c.Locks)
	}
}

// wideRandomStream returns n values drawn uniformly from [0, 2^40), so
// that no two window samples are expected to be equal.
func wideRandomStream(n int, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63n(1 << 40)
	}
	return out
}

// BenchmarkStreamPredictorPredict measures a single locked-pattern lookup.
func BenchmarkStreamPredictorPredict(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	for _, x := range benchStream(4*p.cfg.WindowSize, 18) {
		p.Observe(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Predict(i%5 + 1); !ok {
			b.Fatal("locked predictor abstained")
		}
	}
}

// BenchmarkPredictSeriesInto measures the +1..+5 multi-step query with a
// reused caller buffer — the per-message query shape of the scalability
// replays.
func BenchmarkPredictSeriesInto(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	for _, x := range benchStream(4*p.cfg.WindowSize, 18) {
		p.Observe(x)
	}
	buf := make([]Prediction, 0, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.PredictSeriesInto(buf[:0], 5)
	}
	_ = buf
}

// BenchmarkLockRelock measures the lock path (window snapshot + consensus
// vote), which the allocation-lean scratch buffers target: predictors on
// noisy physical streams relock continually.
func BenchmarkLockRelock(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	stream := benchStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	if p.State() != Locked {
		b.Fatal("predictor should be locked after warm-up")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.lock(18)
	}
}
