package strategy

import (
	"fmt"
	"math"

	"mpipredict/internal/core"
)

// DPD is the paper's predictor behind the Strategy interface: a thin
// wrapper around core.StreamPredictor with zero behavior change. Observe,
// Predict and the Into variants forward directly, so the DPD path through
// the interface is hit-for-hit identical to driving the core predictor by
// hand (pinned by the corpus equivalence suite) and keeps its 0 allocs/op
// guarantee.
type DPD struct {
	sp *core.StreamPredictor
}

// NewDPD returns the DPD strategy with the given core configuration (zero
// fields take core defaults).
func NewDPD(cfg core.Config) *DPD {
	return &DPD{sp: core.NewStreamPredictor(cfg)}
}

// Desc implements Strategy.
func (d *DPD) Desc() Desc {
	cfg := d.sp.Config()
	return Desc{
		Name: "dpd",
		Config: fmt.Sprintf("window=%d maxlag=%d confirm=%d holddown=%d",
			cfg.WindowSize, cfg.MaxLag, cfg.ConfirmRuns, cfg.HoldDown),
	}
}

// Observe implements Strategy.
func (d *DPD) Observe(x int64) { d.sp.Observe(x) }

// Predict implements Strategy.
func (d *DPD) Predict(k int) (int64, bool) { return d.sp.Predict(k) }

// PredictSeriesInto implements Strategy.
func (d *DPD) PredictSeriesInto(dst []core.Prediction, count int) []core.Prediction {
	return d.sp.PredictSeriesInto(dst, count)
}

// PredictSetInto implements Strategy.
func (d *DPD) PredictSetInto(dst []int64, count int) ([]int64, bool) {
	return d.sp.PredictSetInto(dst, count)
}

// Reset implements Strategy.
func (d *DPD) Reset() { d.sp.Reset() }

// Snapshot implements Strategy: the payload is the binary encoding of the
// core predictor snapshot (EncodeDPDState).
func (d *DPD) Snapshot() []byte { return EncodeDPDState(d.sp.Snapshot()) }

// Restore implements Strategy. The payload carries the full predictor
// state including its configuration, so whatever configuration this
// instance was created with is replaced wholesale.
func (d *DPD) Restore(payload []byte) error {
	state, err := DecodeDPDState(payload)
	if err != nil {
		return err
	}
	sp, err := core.RestoreStreamPredictor(state)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	d.sp = sp
	return nil
}

// PredictorState implements StateReporter (learning/locked).
func (d *DPD) PredictorState() string { return d.sp.State().String() }

// PredictorPeriod implements PeriodReporter.
func (d *DPD) PredictorPeriod() (int, bool) { return d.sp.Period() }

// Stream exposes the wrapped core predictor for callers that need the
// richer DPD-specific API (period, pattern, counters).
func (d *DPD) Stream() *core.StreamPredictor { return d.sp }

// EncodeDPDState serializes a core predictor snapshot to the dpd payload
// format:
//
//	varint  WindowSize, MaxLag, MinRepeats, ConfirmRuns, HoldDown
//	uvarint Float64bits(LockTolerance)
//	varint  RelearnWindow
//	uvarint Float64bits(RelearnMissRate)
//	varint  WindowObserved
//	int64s  Window (uvarint length + varints, oldest first)
//	byte    State
//	int64s  Pattern
//	varint  Phase, MissStreak
//	uvarint len(Recent) + one 0/1 byte per outcome, oldest first
//	varint  CandidatePeriod, CandidateRuns
//	varint  the five lifetime counters
func EncodeDPDState(s core.PredictorSnapshot) []byte {
	var w payloadWriter
	w.varint(int64(s.Config.WindowSize))
	w.varint(int64(s.Config.MaxLag))
	w.varint(int64(s.Config.MinRepeats))
	w.varint(int64(s.Config.ConfirmRuns))
	w.varint(int64(s.Config.HoldDown))
	w.uvarint(math.Float64bits(s.Config.LockTolerance))
	w.varint(int64(s.Config.RelearnWindow))
	w.uvarint(math.Float64bits(s.Config.RelearnMissRate))
	w.varint(s.WindowObserved)
	w.int64s(s.Window)
	w.byte(byte(s.State))
	w.int64s(s.Pattern)
	w.varint(int64(s.Phase))
	w.varint(int64(s.MissStreak))
	w.uvarint(uint64(len(s.Recent)))
	for _, hit := range s.Recent {
		if hit {
			w.byte(1)
		} else {
			w.byte(0)
		}
	}
	w.varint(int64(s.CandidatePeriod))
	w.varint(int64(s.CandidateRuns))
	w.varint(s.Counters.Observed)
	w.varint(s.Counters.Locks)
	w.varint(s.Counters.Unlocks)
	w.varint(s.Counters.HitsWhile)
	w.varint(s.Counters.MissesWhile)
	return w.buf
}

// DecodeDPDState parses a dpd payload back into a predictor snapshot. It
// performs the structural validation only; semantic validation is
// core.RestoreStreamPredictor's job (DPD.Restore runs both).
func DecodeDPDState(payload []byte) (core.PredictorSnapshot, error) {
	var s core.PredictorSnapshot
	r := &payloadReader{data: payload}
	fields := []*int{
		&s.Config.WindowSize, &s.Config.MaxLag, &s.Config.MinRepeats,
		&s.Config.ConfirmRuns, &s.Config.HoldDown,
	}
	for _, f := range fields {
		v, err := r.varint()
		if err != nil {
			return s, err
		}
		*f = int(v)
	}
	bits, err := r.uvarint()
	if err != nil {
		return s, err
	}
	s.Config.LockTolerance = math.Float64frombits(bits)
	v, err := r.varint()
	if err != nil {
		return s, err
	}
	s.Config.RelearnWindow = int(v)
	if bits, err = r.uvarint(); err != nil {
		return s, err
	}
	s.Config.RelearnMissRate = math.Float64frombits(bits)
	if s.WindowObserved, err = r.varint(); err != nil {
		return s, err
	}
	if s.Window, err = r.int64s(); err != nil {
		return s, err
	}
	state, err := r.byte()
	if err != nil {
		return s, err
	}
	s.State = core.LockState(state)
	if s.Pattern, err = r.int64s(); err != nil {
		return s, err
	}
	if v, err = r.varint(); err != nil {
		return s, err
	}
	s.Phase = int(v)
	if v, err = r.varint(); err != nil {
		return s, err
	}
	s.MissStreak = int(v)
	n, err := r.uvarint()
	if err != nil {
		return s, err
	}
	if n > maxPayloadSliceLen {
		return s, payloadErrf("outcome ring length %d exceeds the payload limit %d", n, maxPayloadSliceLen)
	}
	if n > 0 {
		s.Recent = make([]bool, n)
		for i := range s.Recent {
			b, err := r.byte()
			if err != nil {
				return s, err
			}
			switch b {
			case 0:
				s.Recent[i] = false
			case 1:
				s.Recent[i] = true
			default:
				return s, payloadErrf("invalid outcome byte 0x%02x", b)
			}
		}
	}
	if v, err = r.varint(); err != nil {
		return s, err
	}
	s.CandidatePeriod = int(v)
	if v, err = r.varint(); err != nil {
		return s, err
	}
	s.CandidateRuns = int(v)
	counters := []*int64{
		&s.Counters.Observed, &s.Counters.Locks, &s.Counters.Unlocks,
		&s.Counters.HitsWhile, &s.Counters.MissesWhile,
	}
	for _, c := range counters {
		if *c, err = r.varint(); err != nil {
			return s, err
		}
	}
	if err := r.done(); err != nil {
		return s, err
	}
	return s, nil
}
