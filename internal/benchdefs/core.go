package benchdefs

// The DPD layer on its own, below strategy dispatch: steady-state observe
// cost of the bare detector and of the StreamPredictor in each of its two
// states, and of a predictor that keeps unlocking and relocking. Together
// with the strategy-observe-dpd entry these split the serving path's
// per-event DPD cost into its layers.

import (
	"fmt"
	"math/rand"

	"mpipredict/internal/core"
)

// CoreBenchLayers names the core observe layers, one benchmark entry each.
var CoreBenchLayers = []string{"detector-observe", "stream-observe-locked", "stream-observe-learning", "stream-observe-churn"}

// CoreBenchEnv is one warmed core layer ready for steady-state observe
// measurement. The detector and the locked predictor see the period-18
// stream (ServeBenchPeriod); the learning predictor sees wide random
// values that never repeat within a window, so it searches every lag on
// every observe and never locks. The churn predictor sees the period-18
// stream broken by bursts of misses (churnStream), so it pays for the
// detector counts it skipped while locked each time it unlocks.
type CoreBenchEnv struct {
	layer  string
	det    *core.Detector
	sp     *core.StreamPredictor
	stream []int64
	i      int
}

// NewCoreBenchEnv builds and warms the named layer (see CoreBenchLayers).
func NewCoreBenchEnv(layer string) (*CoreBenchEnv, error) {
	cfg := core.DefaultConfig()
	env := &CoreBenchEnv{layer: layer}
	switch layer {
	case "detector-observe":
		env.det = core.NewDetector(cfg)
	case "stream-observe-locked", "stream-observe-learning", "stream-observe-churn":
		env.sp = core.NewStreamPredictor(cfg)
	default:
		return nil, fmt.Errorf("unknown core layer %q", layer)
	}
	switch layer {
	case "stream-observe-learning":
		r := rand.New(rand.NewSource(1))
		env.stream = make([]int64, 4*cfg.WindowSize)
		for i := range env.stream {
			env.stream[i] = r.Int63n(1 << 40)
		}
	case "stream-observe-churn":
		env.stream = churnStream(cfg)
	default:
		// A whole number of periods, so wrapping around the stream keeps
		// the pattern seamless and the locked predictor never misses.
		n := 4 * cfg.WindowSize
		env.stream = make([]int64, n-n%ServeBenchPeriod)
		for i := range env.stream {
			env.stream[i] = int64(i % ServeBenchPeriod)
		}
	}
	for range env.stream {
		env.Observe()
	}
	return env, env.Check()
}

// churnStream returns the churn layer's input: 256 periods of the
// period-18 stream in which bursts of HoldDown+2 out-of-pattern values,
// at seeded gaps of 64 to 639 samples, each drop the lock. Gaps up to the
// detector's replay limit (208 at the default configuration) are caught
// up by replaying the skipped count updates, longer ones by a rebuild, so
// both catch-up paths are measured. Bursts replace pattern samples in
// place, keeping the phase, and none straddles the end, so wrapping
// around the stream is seamless.
func churnStream(cfg core.Config) []int64 {
	r := rand.New(rand.NewSource(1))
	stream := make([]int64, 256*ServeBenchPeriod)
	for i := range stream {
		stream[i] = int64(i % ServeBenchPeriod)
	}
	burst := cfg.HoldDown + 2
	for at := 64 + r.Intn(576); at+burst <= len(stream); at += burst + 64 + r.Intn(576) {
		for i := at; i < at+burst; i++ {
			stream[i] = 1000 + r.Int63n(1000)
		}
	}
	return stream
}

// Observe feeds the next event of the layer's stream.
func (e *CoreBenchEnv) Observe() {
	x := e.stream[e.i]
	e.i++
	if e.i == len(e.stream) {
		e.i = 0
	}
	if e.det != nil {
		e.det.Observe(x)
		return
	}
	e.sp.Observe(x)
}

// Check verifies the layer is still in the state it measures: the locked
// predictor has kept its lock, the learning one has never locked and the
// churn one has both locked and unlocked.
func (e *CoreBenchEnv) Check() error {
	switch e.layer {
	case "stream-observe-locked":
		if e.sp.State() != core.Locked {
			return fmt.Errorf("core %s: predictor is not locked", e.layer)
		}
	case "stream-observe-learning":
		if c := e.sp.Counters(); c.Locks != 0 {
			return fmt.Errorf("core %s: predictor locked %d times", e.layer, c.Locks)
		}
	case "stream-observe-churn":
		if c := e.sp.Counters(); c.Locks == 0 || c.Unlocks == 0 {
			return fmt.Errorf("core %s: predictor locked %d and unlocked %d times, want both", e.layer, c.Locks, c.Unlocks)
		}
	}
	return nil
}
