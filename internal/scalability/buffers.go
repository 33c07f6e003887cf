package scalability

import (
	"fmt"

	"mpipredict/internal/core"
	"mpipredict/internal/trace"
)

// DefaultPerPeerBufferBytes is the per-peer eager buffer size the paper
// quotes for the IBM MPI implementation (16 KB).
const DefaultPerPeerBufferBytes = 16 * 1024

// StaticBufferMemory returns the memory one process dedicates to per-peer
// receive buffers under the conventional scheme: one buffer for every
// other process. At 10 000 processes and 16 KB per peer this is the
// 160 MB per process figure of Section 2.1.
func StaticBufferMemory(procs int, perPeerBytes int64) int64 {
	if procs < 1 {
		return 0
	}
	return int64(procs-1) * perPeerBytes
}

// forecastHorizon is how many future messages each mechanism's receiver
// provisions, credits or pre-allocates for.
const forecastHorizon = 5

// BufferConfig parameterises the prediction-driven buffer manager. Each
// eager receive buffer is DefaultPerPeerBufferBytes.
type BufferConfig struct {
	// Forecaster produces the (sender, size) forecasts. Nil selects a
	// DPD-based message predictor with default configuration.
	Forecaster *MessagePredictor
}

func (c BufferConfig) withDefaults() BufferConfig {
	if c.Forecaster == nil {
		c.Forecaster = NewDPDMessagePredictor(core.DefaultConfig())
	}
	return c
}

// BufferStats summarises a buffer-manager replay.
type BufferStats struct {
	// Messages is the number of messages processed.
	Messages int64
	// FastPath counts messages whose sender had a pre-allocated buffer
	// (the eager path is taken without any control-flow message).
	FastPath int64
	// SlowPath counts mispredictions: the sender was not provisioned, so
	// the message has to take the ask-permission path of Section 2.1.
	SlowPath int64
	// PeakBuffers is the largest number of simultaneously allocated
	// buffers.
	PeakBuffers int
	// PeakMemory is PeakBuffers times the per-peer buffer size.
	PeakMemory int64
	// StaticMemory is the memory the conventional one-buffer-per-peer
	// scheme would need for the same number of processes.
	StaticMemory int64
}

// FastPathRate returns the fraction of messages that hit a pre-allocated
// buffer.
func (s BufferStats) FastPathRate() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.FastPath) / float64(s.Messages)
}

// MemoryReductionFactor returns how many times smaller the peak
// prediction-driven buffer memory is compared to the static scheme.
func (s BufferStats) MemoryReductionFactor() float64 {
	if s.PeakMemory == 0 {
		return 0
	}
	return float64(s.StaticMemory) / float64(s.PeakMemory)
}

// BufferManager allocates receive buffers for the senders the predictor
// expects next. It models the receiver side of the Section 2.1 protocol;
// the trace replay drives it with the physically arriving messages.
type BufferManager struct {
	cfg       BufferConfig
	procs     int
	allocated map[int]bool
	stats     BufferStats

	// next and forecast are scratch buffers reused across messages so the
	// per-message reprovision performs no allocations in steady state.
	next     map[int]bool
	forecast []MessageForecast
}

// NewBufferManager returns a manager for a job with the given number of
// processes.
func NewBufferManager(procs int, cfg BufferConfig) (*BufferManager, error) {
	if procs < 2 {
		return nil, fmt.Errorf("scalability: need at least 2 processes, got %d", procs)
	}
	cfg = cfg.withDefaults()
	return &BufferManager{
		cfg:       cfg,
		procs:     procs,
		allocated: make(map[int]bool),
		next:      make(map[int]bool),
		stats:     BufferStats{StaticMemory: StaticBufferMemory(procs, DefaultPerPeerBufferBytes)},
	}, nil
}

// OnMessage processes one arriving message: it checks whether the sender
// had a provisioned buffer (fast path) and then updates the forecast and
// re-provisions buffers for the senders expected next.
func (m *BufferManager) OnMessage(sender int, size int64) {
	m.stats.Messages++
	if m.allocated[sender] {
		m.stats.FastPath++
	} else {
		m.stats.SlowPath++
	}
	m.cfg.Forecaster.Observe(sender, size)
	m.reprovision()
}

// reprovision reallocates buffers for the currently forecast senders. The
// previous allocation is released first; in a real implementation the
// buffers would be recycled, but for the memory accounting only the
// simultaneous peak matters. The forecast buffer and the two allocation
// maps are reused (swap + clear) so this per-message step does not
// allocate.
func (m *BufferManager) reprovision() {
	m.forecast = m.cfg.Forecaster.ForecastInto(m.forecast[:0], forecastHorizon)
	for _, f := range m.forecast {
		if !f.OK {
			// No complete prediction available: keep the current
			// allocation so the learning phase does not flap.
			return
		}
	}
	clear(m.next)
	for _, f := range m.forecast {
		if f.Sender >= 0 && f.Sender < m.procs {
			m.next[f.Sender] = true
		}
	}
	m.allocated, m.next = m.next, m.allocated
	if len(m.allocated) > m.stats.PeakBuffers {
		m.stats.PeakBuffers = len(m.allocated)
	}
	m.stats.PeakMemory = int64(m.stats.PeakBuffers) * DefaultPerPeerBufferBytes
}

// Stats returns the statistics collected so far.
func (m *BufferManager) Stats() BufferStats { return m.stats }

// ReplayBuffers replays the physical message stream of one receiver
// through a prediction-driven buffer manager and reports the fast-path
// rate and the memory the receiver actually needed.
func ReplayBuffers(tr *trace.Trace, receiver int, cfg BufferConfig) (BufferStats, error) {
	m, err := NewBufferManager(tr.Procs, cfg)
	if err != nil {
		return BufferStats{}, err
	}
	recs := tr.Filter(receiver, trace.Physical)
	if len(recs) == 0 {
		return BufferStats{}, fmt.Errorf("scalability: receiver %d has no physical records", receiver)
	}
	for _, r := range recs {
		m.OnMessage(r.Sender, r.Size)
	}
	return m.Stats(), nil
}
