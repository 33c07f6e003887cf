package scalability

import (
	"mpipredict/internal/core"
	"mpipredict/internal/strategy"
)

// MessageForecast is the joint prediction for one future message: which
// rank will send it and how many bytes it will carry. It is the piece of
// information the scalability mechanisms of Section 2 of the paper need:
// the receiver uses it to pre-allocate a buffer of Size bytes for Sender
// and to hand out a credit before the message is sent.
type MessageForecast struct {
	Ahead  int   // how many messages in the future (1 = next message)
	Sender int   // predicted sending rank
	Size   int64 // predicted message size in bytes
	OK     bool  // false when either stream strategy abstained
}

// MessagePredictor couples two prediction strategies — one for the sender
// stream, one for the size stream of a single receiving process — into a
// message-level forecaster.
type MessagePredictor struct {
	sender strategy.Strategy
	size   strategy.Strategy
}

// NewMessagePredictor builds a message predictor from two independently
// chosen strategies.
func NewMessagePredictor(sender, size strategy.Strategy) *MessagePredictor {
	return &MessagePredictor{sender: sender, size: size}
}

// NewDPDMessagePredictor is the paper's configuration: a DPD on both the
// sender and the size stream.
func NewDPDMessagePredictor(cfg core.Config) *MessagePredictor {
	return NewMessagePredictor(strategy.NewDPD(cfg), strategy.NewDPD(cfg))
}

// Observe records one received message.
func (m *MessagePredictor) Observe(sender int, size int64) {
	m.sender.Observe(int64(sender))
	m.size.Observe(size)
}

// ForecastInto appends the next `count` message forecasts to dst and
// returns it. The per-message replay loops of the mechanisms pass a
// reused buffer (dst[:0] of the previous call), so steady-state
// forecasting performs no allocations.
func (m *MessagePredictor) ForecastInto(dst []MessageForecast, count int) []MessageForecast {
	for k := 1; k <= count; k++ {
		s, okS := m.sender.Predict(k)
		z, okZ := m.size.Predict(k)
		dst = append(dst, MessageForecast{
			Ahead:  k,
			Sender: int(s),
			Size:   z,
			OK:     okS && okZ,
		})
	}
	return dst
}
