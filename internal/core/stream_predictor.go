package core

import "slices"

// LockState describes what the StreamPredictor is currently doing.
type LockState int

const (
	// Learning means no pattern has been confirmed yet; the predictor
	// abstains from predictions that require a locked pattern and falls
	// back to the bare detector when it already sees a strict period.
	Learning LockState = iota
	// Locked means a pattern snapshot has been taken and predictions are
	// served from it.
	Locked
)

// String returns a human-readable name for the state.
func (s LockState) String() string {
	switch s {
	case Learning:
		return "learning"
	case Locked:
		return "locked"
	default:
		return "unknown"
	}
}

// Counters aggregates what happened to a StreamPredictor over its
// lifetime. They are exposed so the evaluation harness and the
// scalability applications can reason about predictor behaviour (e.g. how
// often it had to relearn on a noisy physical stream).
type Counters struct {
	Observed    int64 // samples fed to Observe
	Locks       int64 // transitions Learning -> Locked
	Unlocks     int64 // transitions Locked -> Learning (hold-down exceeded)
	HitsWhile   int64 // observations that matched the locked expectation
	MissesWhile int64 // observations that contradicted the locked expectation
}

// StreamPredictor implements the online prediction policy built on top of
// the DPD. It follows the behaviour described in sections 4.2 and 5.3 of
// the paper:
//
//   - While learning, it feeds the detector and waits until the same
//     period has been detected for ConfirmRuns consecutive observations.
//   - It then locks a snapshot of one full pattern. The snapshot is a
//     per-phase consensus (majority vote across the repetitions present in
//     the window), so a single perturbed sample in the window does not
//     poison the locked pattern.
//   - While locked, every prediction is read from the pattern at the
//     appropriate phase, so several future values (+1 … +5 in the paper)
//     are available at once. Observations that contradict the pattern are
//     counted; HoldDown consecutive misses drop the lock and learning
//     starts again from the current window.
type StreamPredictor struct {
	cfg Config
	det *Detector

	state      LockState
	pattern    []int64
	phase      int // index into pattern of the next expected observation
	missStreak int

	// recent is a ring of hit/miss outcomes observed while locked; it
	// backs the miss-rate relearn trigger (Config.RelearnWindow /
	// RelearnMissRate).
	recent       []bool
	recentIdx    int
	recentCount  int
	recentMisses int

	candidatePeriod int
	candidateRuns   int

	// scratchCounts is reused across lock events so that locking onto a
	// pattern does not allocate one counting map per phase every time
	// (predictors on noisy physical streams relock often).
	scratchCounts map[int64]int

	counters Counters
}

// NewStreamPredictor returns a predictor with the given configuration
// (zero fields take defaults, see Config).
func NewStreamPredictor(cfg Config) *StreamPredictor {
	cfg = cfg.withDefaults()
	p := &StreamPredictor{
		cfg:   cfg,
		det:   NewDetector(cfg),
		state: Learning,
	}
	// Allocate the hit/miss ring up front so the steady-state Observe
	// path never allocates.
	if cfg.RelearnWindow > 0 {
		p.recent = make([]bool, cfg.RelearnWindow)
	}
	return p
}

// State returns the current lock state.
func (p *StreamPredictor) State() LockState { return p.state }

// Config returns the predictor's effective configuration (defaults
// resolved).
func (p *StreamPredictor) Config() Config { return p.cfg }

// Period returns the length of the currently locked pattern, or the
// detector's current period while learning. ok is false when neither is
// available.
func (p *StreamPredictor) Period() (int, bool) {
	if p.state == Locked {
		return len(p.pattern), true
	}
	return p.det.Period()
}

// Counters returns a snapshot of the lifetime counters.
func (p *StreamPredictor) Counters() Counters { return p.counters }

// Reset returns the predictor to its initial state.
func (p *StreamPredictor) Reset() {
	p.det.Reset()
	p.state = Learning
	p.pattern = nil
	p.phase = 0
	p.missStreak = 0
	p.candidatePeriod = 0
	p.candidateRuns = 0
	p.resetRecent()
	p.counters = Counters{}
}

// Observe feeds one sample of the stream to the predictor.
func (p *StreamPredictor) Observe(x int64) {
	p.counters.Observed++
	if p.state == Locked {
		expected := p.pattern[p.phase]
		hit := x == expected
		if hit {
			p.counters.HitsWhile++
			p.missStreak = 0
		} else {
			p.counters.MissesWhile++
			p.missStreak++
		}
		p.recordOutcome(hit)
		p.phase = (p.phase + 1) % len(p.pattern)
		// Nothing reads the detector's counts while locked, so the sample
		// only enters the window; the counts catch up when learning
		// resumes.
		p.det.push(x)
		if p.missStreak > p.cfg.HoldDown || p.missRateExceeded() {
			p.unlock()
		}
		return
	}

	p.det.Observe(x)
	period, ok := p.searchPeriod()
	if !ok {
		p.candidatePeriod = 0
		p.candidateRuns = 0
		return
	}
	if period == p.candidatePeriod {
		p.candidateRuns++
	} else {
		p.candidatePeriod = period
		p.candidateRuns = 1
	}
	if p.candidateRuns >= p.cfg.ConfirmRuns {
		p.lock(period)
	}
}

// searchPeriod looks for a period to lock onto. A strict period (the
// window is exactly periodic, the paper's d(m) == 0 criterion) is
// preferred because it captures the full iterative pattern of the
// application even when the stream alternates between shorter local
// sub-patterns (the LU sweeps are the canonical example). When no strict
// period exists — typically on physical-level streams perturbed by noise —
// the tolerant criterion is used instead. With LockTolerance 0 both
// criteria coincide. The detector answers both in a single pass.
func (p *StreamPredictor) searchPeriod() (int, bool) {
	return p.det.lockPeriod()
}

// lock captures the consensus pattern of length period from the detector
// window and switches to the Locked state. The next expected observation
// is the one that follows the most recent window sample.
func (p *StreamPredictor) lock(period int) {
	// The vote reads the window in place, rotated to one contiguous run,
	// rather than from a copy.
	win := p.det.win.Unwrap()
	if period <= 0 || len(win) < period {
		return
	}
	if p.scratchCounts == nil {
		p.scratchCounts = make(map[int64]int)
	}
	p.pattern = consensusPattern(p.pattern, win, period, p.scratchCounts)
	// The window ends at x[t]; the next observation x[t+1] corresponds to
	// pattern phase (len(win)) mod period when the pattern is anchored at
	// the start of the window.
	p.phase = len(win) % period
	p.state = Locked
	p.missStreak = 0
	p.candidatePeriod = 0
	p.candidateRuns = 0
	p.resetRecent()
	p.counters.Locks++
}

func (p *StreamPredictor) unlock() {
	p.state = Learning
	// Keep the capacity for the next lock; every reader of the pattern
	// checks the state first, and Pattern and Snapshot copy it out.
	p.pattern = p.pattern[:0]
	p.phase = 0
	p.missStreak = 0
	p.candidatePeriod = 0
	p.candidateRuns = 0
	p.resetRecent()
	p.counters.Unlocks++
}

// recordOutcome appends a hit/miss outcome to the locked-state ring.
func (p *StreamPredictor) recordOutcome(hit bool) {
	if p.cfg.RelearnWindow <= 0 {
		return
	}
	if p.recentCount == len(p.recent) {
		if !p.recent[p.recentIdx] {
			p.recentMisses--
		}
	} else {
		p.recentCount++
	}
	p.recent[p.recentIdx] = hit
	if !hit {
		p.recentMisses++
	}
	p.recentIdx = (p.recentIdx + 1) % len(p.recent)
}

// missRateExceeded reports whether the locked pattern has been missing too
// often over the recent window to be worth keeping. It only fires once the
// window is full, so a freshly locked pattern gets a fair chance.
func (p *StreamPredictor) missRateExceeded() bool {
	if p.cfg.RelearnWindow <= 0 || p.recentCount < p.cfg.RelearnWindow {
		return false
	}
	return float64(p.recentMisses) > p.cfg.RelearnMissRate*float64(p.recentCount)
}

func (p *StreamPredictor) resetRecent() {
	p.recentIdx = 0
	p.recentCount = 0
	p.recentMisses = 0
	if p.recent != nil {
		for i := range p.recent {
			p.recent[i] = false
		}
	}
}

// Predict returns the expected value k observations ahead (k >= 1).
// While locked it reads the locked pattern; while learning it falls back
// to the detector's strict-period prediction; otherwise it abstains.
func (p *StreamPredictor) Predict(k int) (int64, bool) {
	if k < 1 {
		return 0, false
	}
	if p.state == Locked {
		idx := (p.phase + k - 1) % len(p.pattern)
		return p.pattern[idx], true
	}
	return p.det.Predict(k)
}

// PredictSeriesInto appends the next count predictions to dst and returns
// it. Hot-path callers pass a reused buffer — typically dst[:0] of the
// previous call — so steady-state multi-step queries perform no
// allocations (see scalability.MessagePredictor.ForecastInto for the
// equivalent message-level query the replay loops use).
func (p *StreamPredictor) PredictSeriesInto(dst []Prediction, count int) []Prediction {
	if p.state != Locked {
		return p.det.PredictSeriesInto(dst, count)
	}
	for k := 1; k <= count; k++ {
		v, _ := p.Predict(k)
		dst = append(dst, Prediction{Ahead: k, Value: v, OK: true})
	}
	return dst
}

// PredictSetInto appends the next-count value multiset to dst and returns
// it, with ok == false when any of the underlying predictions abstains.
// On abstention the (partially filled) buffer is still returned so a
// caller that reuses it — dst[:0] of the previous call — keeps its
// capacity across abstaining queries.
func (p *StreamPredictor) PredictSetInto(dst []int64, count int) ([]int64, bool) {
	if p.state == Locked {
		for k := 1; k <= count; k++ {
			v, _ := p.Predict(k)
			dst = append(dst, v)
		}
		return dst, true
	}
	// While learning, every prediction comes from the detector's strict
	// period, so one lookup decides the whole set.
	m, ok := p.det.Period()
	if !ok && count >= 1 {
		return dst, false
	}
	for k := 1; k <= count; k++ {
		dst = append(dst, p.det.predictAt(m, k))
	}
	return dst, true
}

// consensusPattern builds a pattern of the given period from a window by
// majority vote over all samples that share the same phase. With a clean
// window this is exactly the last period of the window; with isolated
// perturbations the majority of repetitions wins. The scratch map is
// cleared and reused for every phase, so one lock event costs zero map
// allocations instead of one per phase; the walk visits each window sample
// twice in total (O(len(win))) rather than once per phase. A phase where
// one value holds a strict majority — every phase of a clean window, and
// most phases of a perturbed one — skips the counting map. The pattern is
// written into dst's capacity when it suffices, so a relock reuses the
// previous pattern's array.
func consensusPattern(dst, win []int64, period int, scratch map[int64]int) []int64 {
	pattern := slices.Grow(dst[:0], period)[:period]
	for ph := 0; ph < period; ph++ {
		last := ph + ((len(win)-1-ph)/period)*period
		if v, ok := phaseMajority(win, ph, last, period); ok {
			pattern[ph] = v
			continue
		}
		clear(scratch)
		for i := ph; i < len(win); i += period {
			scratch[win[i]]++
		}
		best := int64(0)
		bestCount := -1
		// Deterministic tie-break: prefer the value seen most recently in
		// the window at this phase. Walking newest-first and requiring a
		// strictly greater count reproduces the seed implementation's
		// choice exactly.
		for i := last; i >= 0; i -= period {
			v := win[i]
			if c := scratch[v]; c > bestCount {
				best = v
				bestCount = c
			}
		}
		pattern[ph] = best
	}
	return pattern
}

// phaseMajority returns the value held by more than half of one phase's
// samples, win[ph], win[ph+period], ..., win[last], if there is one. Such a
// value has a strictly greater count than any other, so the vote would pick
// it whatever the tie-break. It runs the Boyer-Moore majority vote, then
// counts the candidate to confirm it.
func phaseMajority(win []int64, ph, last, period int) (int64, bool) {
	cand, lead := int64(0), 0
	for i := ph; i <= last; i += period {
		switch {
		case lead == 0:
			cand, lead = win[i], 1
		case win[i] == cand:
			lead++
		default:
			lead--
		}
	}
	count, total := 0, 0
	for i := ph; i <= last; i += period {
		total++
		count += int(b2u(win[i] == cand))
	}
	return cand, 2*count > total
}
