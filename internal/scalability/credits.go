package scalability

import (
	"fmt"

	"mpipredict/internal/core"
	"mpipredict/internal/trace"
)

// CreditConfig parameterises the credit-based flow control of Section 2.2.
type CreditConfig struct {
	// Forecaster produces the (sender, size) forecasts. Nil selects a
	// DPD-based message predictor.
	Forecaster *MessagePredictor
}

func (c CreditConfig) withDefaults() CreditConfig {
	if c.Forecaster == nil {
		c.Forecaster = NewDPDMessagePredictor(core.DefaultConfig())
	}
	return c
}

// CreditStats summarises a credit-manager replay.
type CreditStats struct {
	// Messages is the number of messages processed.
	Messages int64
	// Credited counts messages that arrived with a matching credit: the
	// sender could send eagerly, knowing memory was reserved.
	Credited int64
	// Uncredited counts messages without a credit; the sender has to ask
	// permission first (one extra round trip) before sending.
	Uncredited int64
	// PeakReservedBytes is the largest amount of memory simultaneously
	// reserved by outstanding credits.
	PeakReservedBytes int64
	// UncontrolledExposureBytes is the memory the receiver would have to
	// absorb in the worst case without flow control: every other process
	// sending one eager message at once (the incast of Section 2.2).
	UncontrolledExposureBytes int64
}

// CreditedRate returns the fraction of messages that arrived with a
// credit.
func (s CreditStats) CreditedRate() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.Credited) / float64(s.Messages)
}

// ExposureReductionFactor returns how many times smaller the credited
// peak reservation is compared to the uncontrolled incast exposure.
func (s CreditStats) ExposureReductionFactor() float64 {
	if s.PeakReservedBytes == 0 {
		return 0
	}
	return float64(s.UncontrolledExposureBytes) / float64(s.PeakReservedBytes)
}

// IncastExposure returns the worst-case receiver memory exposure when
// every other process sends one eager message of the given size without
// any flow control.
func IncastExposure(procs int, eagerBytes int64) int64 {
	if procs < 1 {
		return 0
	}
	return int64(procs-1) * eagerBytes
}

// CreditManager grants credits for the messages the predictor expects and
// accounts how much memory those credits pin down.
type CreditManager struct {
	cfg     CreditConfig
	procs   int
	credits map[int][]int64 // outstanding per-sender credited sizes
	stats   CreditStats

	// next and forecast are scratch buffers recycled across messages
	// (swap + truncate) so the per-message regrant does not allocate in
	// steady state.
	next     map[int][]int64
	forecast []MessageForecast
}

// NewCreditManager builds a credit manager for a job with the given
// number of processes and the eager-message size used for the
// uncontrolled-exposure baseline.
func NewCreditManager(procs int, eagerBytes int64, cfg CreditConfig) (*CreditManager, error) {
	if procs < 2 {
		return nil, fmt.Errorf("scalability: need at least 2 processes, got %d", procs)
	}
	cfg = cfg.withDefaults()
	return &CreditManager{
		cfg:     cfg,
		procs:   procs,
		credits: make(map[int][]int64),
		next:    make(map[int][]int64),
		stats:   CreditStats{UncontrolledExposureBytes: IncastExposure(procs, eagerBytes)},
	}, nil
}

// OnMessage processes one arriving message: it consumes a credit if one
// was outstanding for the sender, then refreshes the credits according to
// the new forecast.
func (m *CreditManager) OnMessage(sender int, size int64) {
	m.stats.Messages++
	if queue := m.credits[sender]; len(queue) > 0 {
		m.stats.Credited++
		// Shift in place rather than reslicing from the front, so the
		// queue keeps its backing capacity for the recycling in regrant.
		copy(queue, queue[1:])
		m.credits[sender] = queue[:len(queue)-1]
	} else {
		m.stats.Uncredited++
	}
	m.cfg.Forecaster.Observe(sender, size)
	m.regrant()
}

// regrant recomputes the outstanding credits from the current forecast.
// The retired credit map is recycled: its per-sender queues are truncated
// in place and refilled, so the per-message churn of the seed
// implementation (one map plus one slice per sender per message) is gone.
func (m *CreditManager) regrant() {
	m.forecast = m.cfg.Forecaster.ForecastInto(m.forecast[:0], forecastHorizon)
	for sender, queue := range m.next {
		m.next[sender] = queue[:0]
	}
	var reserved int64
	for _, f := range m.forecast {
		if !f.OK || f.Sender < 0 || f.Sender >= m.procs {
			continue
		}
		m.next[f.Sender] = append(m.next[f.Sender], f.Size)
		reserved += f.Size
	}
	m.credits, m.next = m.next, m.credits
	if reserved > m.stats.PeakReservedBytes {
		m.stats.PeakReservedBytes = reserved
	}
}

// Stats returns the statistics collected so far.
func (m *CreditManager) Stats() CreditStats { return m.stats }

// ReplayCredits replays the physical message stream of one receiver
// through the credit manager. eagerBytes sets the per-message size used
// for the uncontrolled incast baseline; pass 0 to use the largest message
// observed in the stream.
func ReplayCredits(tr *trace.Trace, receiver int, eagerBytes int64, cfg CreditConfig) (CreditStats, error) {
	recs := tr.Filter(receiver, trace.Physical)
	if len(recs) == 0 {
		return CreditStats{}, fmt.Errorf("scalability: receiver %d has no physical records", receiver)
	}
	if eagerBytes <= 0 {
		for _, r := range recs {
			if r.Size > eagerBytes {
				eagerBytes = r.Size
			}
		}
	}
	m, err := NewCreditManager(tr.Procs, eagerBytes, cfg)
	if err != nil {
		return CreditStats{}, err
	}
	for _, r := range recs {
		m.OnMessage(r.Sender, r.Size)
	}
	return m.Stats(), nil
}
