package scalability

import (
	"fmt"

	"mpipredict/internal/core"
	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
)

// ProtocolConfig parameterises the rendezvous-elimination advisor of
// Section 2.3. Latencies come from simnet.DefaultConfig.
type ProtocolConfig struct {
	// Forecaster produces the (sender, size) forecasts. Nil selects a
	// DPD-based message predictor.
	Forecaster *MessagePredictor
}

func (c ProtocolConfig) withDefaults() ProtocolConfig {
	if c.Forecaster == nil {
		c.Forecaster = NewDPDMessagePredictor(core.DefaultConfig())
	}
	return c
}

// ProtocolStats summarises a protocol-advisor replay.
type ProtocolStats struct {
	// Messages and LargeMessages count all messages and those above the
	// eager limit (the only ones that pay a rendezvous handshake).
	Messages      int64
	LargeMessages int64
	// Eliminated counts large messages whose rendezvous was avoided
	// because the receiver had predicted them (sender and size) and
	// pre-granted the memory.
	Eliminated int64
	// BaselineLatencyUS is the summed point-to-point latency with the
	// standard protocol selection (rendezvous for large messages).
	BaselineLatencyUS float64
	// PredictedLatencyUS is the summed latency when predicted large
	// messages skip the handshake.
	PredictedLatencyUS float64
}

// EliminationRate returns the fraction of large messages whose
// rendezvous handshake was avoided.
func (s ProtocolStats) EliminationRate() float64 {
	if s.LargeMessages == 0 {
		return 0
	}
	return float64(s.Eliminated) / float64(s.LargeMessages)
}

// LatencySavingFraction returns the relative reduction of the summed
// message latency.
func (s ProtocolStats) LatencySavingFraction() float64 {
	if s.BaselineLatencyUS == 0 {
		return 0
	}
	return 1 - s.PredictedLatencyUS/s.BaselineLatencyUS
}

// ProtocolAdvisor decides, message by message, whether a large message
// could have been sent with the fast eager mechanism because the receiver
// predicted it.
type ProtocolAdvisor struct {
	cfg   ProtocolConfig
	model *simnet.Model
	stats ProtocolStats
	// granted maps a sender to the sizes the receiver pre-allocated for.
	granted map[int][]int64

	// next and forecast are scratch buffers recycled across messages
	// (swap + truncate) so the per-message regrant does not allocate in
	// steady state.
	next     map[int][]int64
	forecast []MessageForecast
}

// defaultNet is the timing model of every advisor. A Model is read-only,
// so one is shared; the default network configuration always validates.
var defaultNet = func() *simnet.Model {
	model, err := simnet.NewModel(simnet.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return model
}()

// NewProtocolAdvisor builds an advisor.
func NewProtocolAdvisor(cfg ProtocolConfig) *ProtocolAdvisor {
	return &ProtocolAdvisor{
		cfg:     cfg.withDefaults(),
		model:   defaultNet,
		granted: make(map[int][]int64),
		next:    make(map[int][]int64),
	}
}

// OnMessage accounts one message: the baseline pays the standard protocol
// cost, the predicted variant skips the handshake when a matching grant
// was outstanding.
func (a *ProtocolAdvisor) OnMessage(sender int, size int64) {
	a.stats.Messages++
	baseline := a.model.PointToPointLatency(size, false)
	a.stats.BaselineLatencyUS += baseline
	large := a.model.UsesRendezvous(size)
	if large {
		a.stats.LargeMessages++
	}
	if large && a.consumeGrant(sender, size) {
		a.stats.Eliminated++
		a.stats.PredictedLatencyUS += a.model.PointToPointLatency(size, true)
	} else {
		a.stats.PredictedLatencyUS += baseline
	}
	a.cfg.Forecaster.Observe(sender, size)
	a.regrant()
}

// consumeGrant reports whether a pre-allocation large enough for the
// message was outstanding for the sender, consuming it if so.
func (a *ProtocolAdvisor) consumeGrant(sender int, size int64) bool {
	queue := a.granted[sender]
	for i, granted := range queue {
		if granted >= size {
			a.granted[sender] = append(queue[:i], queue[i+1:]...)
			return true
		}
	}
	return false
}

func (a *ProtocolAdvisor) regrant() {
	a.forecast = a.cfg.Forecaster.ForecastInto(a.forecast[:0], forecastHorizon)
	for sender, queue := range a.next {
		a.next[sender] = queue[:0]
	}
	for _, f := range a.forecast {
		if !f.OK || f.Size <= a.model.EagerLimit() {
			continue
		}
		a.next[f.Sender] = append(a.next[f.Sender], f.Size)
	}
	a.granted, a.next = a.next, a.granted
}

// Stats returns the statistics collected so far.
func (a *ProtocolAdvisor) Stats() ProtocolStats { return a.stats }

// ReplayProtocol replays the physical message stream of one receiver
// through the protocol advisor.
func ReplayProtocol(tr *trace.Trace, receiver int, cfg ProtocolConfig) (ProtocolStats, error) {
	recs := tr.Filter(receiver, trace.Physical)
	if len(recs) == 0 {
		return ProtocolStats{}, fmt.Errorf("scalability: receiver %d has no physical records", receiver)
	}
	a := NewProtocolAdvisor(cfg)
	for _, r := range recs {
		a.OnMessage(r.Sender, r.Size)
	}
	return a.Stats(), nil
}
