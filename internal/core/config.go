package core

import "fmt"

// Config controls the DPD window geometry and the online locking policy of
// StreamPredictor. The zero value is not usable; call DefaultConfig or fill
// every field and Validate it.
type Config struct {
	// WindowSize is N in equation (1): the number of most recent samples
	// the detector keeps. Must be in 2..maxWindowSize.
	WindowSize int

	// MaxLag is M in equation (1): the largest candidate period examined.
	// Must satisfy 1 <= MaxLag < WindowSize. Larger values allow longer
	// patterns (e.g. the per-iteration receive pattern of an alltoall on
	// many ranks) at a linear cost per observation.
	MaxLag int

	// MinRepeats is the number of full pattern repetitions that must be
	// present in the window before a lag m is accepted as a period, i.e.
	// a period m is only reported when Len() >= MinRepeats*m. The paper
	// requires that "a sample of the pattern has to be seen by the
	// predictor for learning"; MinRepeats >= 2 means one full repetition
	// has been compared against the previous one.
	MinRepeats int

	// ConfirmRuns is the number of consecutive observations for which the
	// same period must be detected before StreamPredictor locks onto it.
	ConfirmRuns int

	// HoldDown is the number of consecutive mispredicted observations a
	// locked StreamPredictor tolerates before it drops the locked pattern
	// and returns to the learning state. Isolated reorderings at the
	// physical level cost only the affected predictions instead of
	// forcing a full relearn.
	HoldDown int

	// LockTolerance is the fraction of mismatching pairs allowed when the
	// StreamPredictor searches for a period to lock onto (the bare
	// Detector always uses the strict d(m) == 0 criterion of the paper).
	// Zero keeps locking strict as well; a small value such as 0.1 lets
	// the predictor lock onto mildly perturbed physical-level streams.
	LockTolerance float64

	// RelearnWindow and RelearnMissRate guard against locking onto a
	// spurious pattern (for example a short constant prefix of the
	// stream): while locked, the predictor tracks its hit rate over the
	// last RelearnWindow observations and drops the lock when the miss
	// fraction exceeds RelearnMissRate. This complements HoldDown, which
	// only reacts to *consecutive* misses.
	RelearnWindow   int
	RelearnMissRate float64
}

// DefaultConfig returns the configuration used throughout the evaluation:
// a 512-sample window, lags up to 192 (large enough for the full
// per-iteration receive pattern of LU on 32 processes and Sweep3D on 6),
// two repetitions of evidence, three confirmations before locking and a
// hold-down of six misses.
func DefaultConfig() Config {
	return Config{
		WindowSize:      512,
		MaxLag:          192,
		MinRepeats:      2,
		ConfirmRuns:     3,
		HoldDown:        6,
		LockTolerance:   0.2,
		RelearnWindow:   36,
		RelearnMissRate: 0.3,
	}
}

// maxWindowSize is the largest valid WindowSize, eight times the
// default. A predictor's memory grows linearly with its window, and a
// snapshot carries its own configuration, so without a cap an uploaded
// snapshot could make a restore allocate any amount of memory.
const maxWindowSize = 4096

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.WindowSize < 2 || c.WindowSize > maxWindowSize {
		return fmt.Errorf("core: WindowSize must be in 2..%d, got %d", maxWindowSize, c.WindowSize)
	}
	if c.MaxLag < 1 {
		return fmt.Errorf("core: MaxLag must be >= 1, got %d", c.MaxLag)
	}
	if c.MaxLag >= c.WindowSize {
		return fmt.Errorf("core: MaxLag (%d) must be smaller than WindowSize (%d)", c.MaxLag, c.WindowSize)
	}
	if c.MinRepeats < 1 {
		return fmt.Errorf("core: MinRepeats must be >= 1, got %d", c.MinRepeats)
	}
	if c.ConfirmRuns < 1 {
		return fmt.Errorf("core: ConfirmRuns must be >= 1, got %d", c.ConfirmRuns)
	}
	if c.HoldDown < 0 {
		return fmt.Errorf("core: HoldDown must be >= 0, got %d", c.HoldDown)
	}
	if c.LockTolerance < 0 || c.LockTolerance >= 1 {
		return fmt.Errorf("core: LockTolerance must be in [0,1), got %g", c.LockTolerance)
	}
	if c.RelearnWindow < 0 {
		return fmt.Errorf("core: RelearnWindow must be >= 0, got %d", c.RelearnWindow)
	}
	if c.RelearnMissRate < 0 || c.RelearnMissRate > 1 {
		return fmt.Errorf("core: RelearnMissRate must be in [0,1], got %g", c.RelearnMissRate)
	}
	return nil
}

// withDefaults fills zero fields with DefaultConfig values so that callers
// can override only what they care about.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.WindowSize == 0 {
		c.WindowSize = def.WindowSize
	}
	if c.MaxLag == 0 {
		c.MaxLag = def.MaxLag
	}
	if c.MinRepeats == 0 {
		c.MinRepeats = def.MinRepeats
	}
	if c.ConfirmRuns == 0 {
		c.ConfirmRuns = def.ConfirmRuns
	}
	if c.HoldDown == 0 {
		c.HoldDown = def.HoldDown
	}
	if c.LockTolerance == 0 {
		c.LockTolerance = def.LockTolerance
	}
	if c.RelearnWindow == 0 {
		c.RelearnWindow = def.RelearnWindow
	}
	if c.RelearnMissRate == 0 {
		c.RelearnMissRate = def.RelearnMissRate
	}
	return c
}
