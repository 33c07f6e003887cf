package core

import "fmt"

// PredictorSnapshot is the complete serializable state of a
// StreamPredictor. It exists so a long-running prediction service can
// checkpoint learned periodicity and warm-restart without relearning
// (internal/serve persists it in the versioned snapshot file format).
//
// The snapshot is normalized: the detector window and the locked-state
// outcome ring are stored oldest-first, independently of where the
// underlying circular buffers happen to have their heads. Restoring a
// snapshot and snapshotting again therefore reproduces the identical
// value, which is what makes snapshot files byte-for-byte stable across
// restarts.
type PredictorSnapshot struct {
	// Config is the predictor's configuration after defaulting. It is
	// stored verbatim: restore must not re-default it, because explicit
	// zero values (HoldDown 0, LockTolerance 0) are valid settings.
	Config Config

	// Window holds the detector window contents, oldest first.
	Window []int64
	// WindowObserved is the total number of samples the detector has ever
	// seen, including those that have left the window.
	WindowObserved int64

	// State is the lock state; the fields below it are only meaningful
	// while Locked.
	State LockState
	// Pattern is the locked consensus pattern (nil while learning).
	Pattern []int64
	// Phase indexes the pattern slot of the next expected observation.
	Phase int
	// MissStreak counts the current run of consecutive mispredictions.
	MissStreak int
	// Recent is the locked-state hit/miss outcome ring, oldest first.
	Recent []bool

	// CandidatePeriod and CandidateRuns carry the learning-state
	// confirmation progress.
	CandidatePeriod int
	CandidateRuns   int

	// Counters are the lifetime counters.
	Counters Counters
}

// Snapshot captures the predictor's complete state. The result shares no
// memory with the predictor and stays valid as the predictor keeps
// observing.
func (p *StreamPredictor) Snapshot() PredictorSnapshot {
	s := PredictorSnapshot{
		Config:          p.cfg,
		WindowObserved:  p.det.observed,
		State:           p.state,
		Phase:           p.phase,
		MissStreak:      p.missStreak,
		CandidatePeriod: p.candidatePeriod,
		CandidateRuns:   p.candidateRuns,
		Counters:        p.counters,
	}
	if p.det.win.Len() > 0 {
		s.Window = p.det.Window()
	}
	if p.state == Locked {
		s.Pattern = append([]int64(nil), p.pattern...)
		s.Recent = p.recentOutcomes()
	}
	return s
}

// recentOutcomes returns the locked-state outcome ring oldest-first, or
// nil when empty.
func (p *StreamPredictor) recentOutcomes() []bool {
	if p.recentCount == 0 {
		return nil
	}
	out := make([]bool, p.recentCount)
	start := p.recentIdx - p.recentCount
	if start < 0 {
		start += len(p.recent)
	}
	for i := range out {
		out[i] = p.recent[(start+i)%len(p.recent)]
	}
	return out
}

// RestoreStreamPredictor rebuilds a predictor from a snapshot. The
// snapshot is validated in full — a corrupt or hand-edited snapshot yields
// an error, never a predictor that panics later. The detector's per-lag
// mismatch counts are not stored: the window is pushed back and the
// counts are rebuilt from it when first read, which is cheaper than
// persisting them and cannot disagree with the window contents.
func RestoreStreamPredictor(s PredictorSnapshot) (*StreamPredictor, error) {
	cfg := s.Config
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: restoring predictor: %w", err)
	}
	if len(s.Window) > cfg.WindowSize {
		return nil, fmt.Errorf("core: restoring predictor: window holds %d samples, config allows %d", len(s.Window), cfg.WindowSize)
	}
	if s.WindowObserved < int64(len(s.Window)) {
		return nil, fmt.Errorf("core: restoring predictor: observed count %d below window length %d", s.WindowObserved, len(s.Window))
	}
	if s.CandidatePeriod < 0 || s.CandidateRuns < 0 {
		return nil, fmt.Errorf("core: restoring predictor: negative candidate state (%d, %d)", s.CandidatePeriod, s.CandidateRuns)
	}

	// Construct by hand rather than via NewStreamPredictor: the
	// constructors re-default zero config fields, which would silently
	// rewrite a snapshot that legitimately uses zero values.
	p := &StreamPredictor{
		cfg:   cfg,
		det:   newDetector(cfg),
		state: Learning,
	}
	if cfg.RelearnWindow > 0 {
		p.recent = make([]bool, cfg.RelearnWindow)
	}
	for _, x := range s.Window {
		p.det.push(x)
	}
	p.det.observed = s.WindowObserved

	switch s.State {
	case Learning:
		if len(s.Pattern) != 0 || len(s.Recent) != 0 || s.Phase != 0 || s.MissStreak != 0 {
			return nil, fmt.Errorf("core: restoring predictor: learning state carries locked-only fields")
		}
	case Locked:
		if len(s.Pattern) == 0 {
			return nil, fmt.Errorf("core: restoring predictor: locked state without a pattern")
		}
		if len(s.Pattern) > cfg.MaxLag {
			return nil, fmt.Errorf("core: restoring predictor: pattern of length %d exceeds MaxLag %d", len(s.Pattern), cfg.MaxLag)
		}
		if s.Phase < 0 || s.Phase >= len(s.Pattern) {
			return nil, fmt.Errorf("core: restoring predictor: phase %d outside pattern of length %d", s.Phase, len(s.Pattern))
		}
		if s.MissStreak < 0 {
			return nil, fmt.Errorf("core: restoring predictor: negative miss streak %d", s.MissStreak)
		}
		if len(s.Recent) > cfg.RelearnWindow {
			return nil, fmt.Errorf("core: restoring predictor: outcome ring holds %d entries, config allows %d", len(s.Recent), cfg.RelearnWindow)
		}
		p.state = Locked
		p.pattern = append([]int64(nil), s.Pattern...)
		p.phase = s.Phase
		p.missStreak = s.MissStreak
		for _, hit := range s.Recent {
			p.recordOutcome(hit)
		}
	default:
		return nil, fmt.Errorf("core: restoring predictor: unknown lock state %d", s.State)
	}

	p.candidatePeriod = s.CandidatePeriod
	p.candidateRuns = s.CandidateRuns
	p.counters = s.Counters
	return p, nil
}
