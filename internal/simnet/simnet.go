// Package simnet models the interconnect and machine-level timing effects
// of the simulated MPI runtime.
//
// The paper runs its benchmarks on a real IBM RS/6000 SP system; the
// physical-level randomness it observes comes from network latency
// variation, congestion and load imbalance between processes
// (Section 3.1). This package substitutes those effects with a simple,
// explicitly parameterised model:
//
//   - message transfer time follows the classic alpha–beta (latency +
//     size/bandwidth) model with a configurable relative jitter,
//   - per-process computation time gets a configurable relative imbalance
//     term, and
//   - messages larger than the eager limit pay an additional rendezvous
//     handshake (the 3-message protocol of Section 2.3).
//
// All randomness is drawn from the *rand.Rand passed by the caller, so the
// simulation stays reproducible and each simulated process can own an
// independent, deterministically seeded generator.
package simnet

import (
	"fmt"
	"math/rand"
)

// Config holds the timing parameters of the network model. All times are
// in microseconds; sizes are in bytes.
type Config struct {
	// LatencyUS is the fixed per-message wire latency (the alpha term).
	LatencyUS float64
	// BandwidthBytesPerUS is the link bandwidth (the 1/beta term). 100
	// bytes/us corresponds to roughly 100 MB/s, typical for the clusters
	// of the paper's era.
	BandwidthBytesPerUS float64
	// SendOverheadUS and RecvOverheadUS model the CPU time spent inside
	// the MPI library per message on each side.
	SendOverheadUS float64
	RecvOverheadUS float64
	// JitterFrac is the relative standard deviation of transfer times.
	// 0 disables network randomness entirely.
	JitterFrac float64
	// ImbalanceFrac is the relative standard deviation applied to
	// application compute phases, modelling OS noise and load imbalance.
	ImbalanceFrac float64
	// EagerLimitBytes is the protocol switch point: messages up to this
	// size are sent eagerly, larger ones use a rendezvous handshake. The
	// 16 KB default matches the implementations discussed in the paper
	// (IBM MPI, MPICH).
	EagerLimitBytes int64
	// RendezvousExtraUS is the additional cost of the request-to-send /
	// clear-to-send round trip paid by rendezvous messages on top of the
	// two small control-message transfers.
	RendezvousExtraUS float64
}

// DefaultConfig returns parameters representative of the machines the
// paper used: tens of microseconds of latency, ~100 MB/s links, a 16 KB
// eager limit, per-message library overheads in the tens of microseconds
// and a few percent of jitter and load imbalance. The noise terms are
// deliberately smaller than the systematic skew between senders (library
// overheads, wavefront position, compute phases), so the physical arrival
// order is mostly stable with occasional reorderings — the behaviour
// Figure 2 of the paper shows.
func DefaultConfig() Config {
	return Config{
		LatencyUS:           30,
		BandwidthBytesPerUS: 100,
		SendOverheadUS:      15,
		RecvOverheadUS:      10,
		JitterFrac:          0.05,
		ImbalanceFrac:       0.03,
		EagerLimitBytes:     16 * 1024,
		RendezvousExtraUS:   10,
	}
}

// NoiselessConfig returns the same timing parameters with every stochastic
// term disabled. The logical and physical streams of a run under this
// configuration describe the same deterministic behaviour, which is useful
// for tests and for isolating the effect of noise.
func NoiselessConfig() Config {
	c := DefaultConfig()
	c.JitterFrac = 0
	c.ImbalanceFrac = 0
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.LatencyUS < 0 {
		return fmt.Errorf("simnet: LatencyUS must be >= 0, got %g", c.LatencyUS)
	}
	if c.BandwidthBytesPerUS <= 0 {
		return fmt.Errorf("simnet: BandwidthBytesPerUS must be > 0, got %g", c.BandwidthBytesPerUS)
	}
	if c.SendOverheadUS < 0 || c.RecvOverheadUS < 0 {
		return fmt.Errorf("simnet: overheads must be >= 0")
	}
	if c.JitterFrac < 0 || c.ImbalanceFrac < 0 {
		return fmt.Errorf("simnet: noise fractions must be >= 0")
	}
	if c.EagerLimitBytes < 0 {
		return fmt.Errorf("simnet: EagerLimitBytes must be >= 0, got %d", c.EagerLimitBytes)
	}
	if c.RendezvousExtraUS < 0 {
		return fmt.Errorf("simnet: RendezvousExtraUS must be >= 0, got %g", c.RendezvousExtraUS)
	}
	return nil
}

// Model evaluates the timing model for a validated configuration.
type Model struct {
	cfg Config
}

// NewModel builds a Model; it returns an error when the configuration is
// invalid.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// noisy multiplies base by a truncated Gaussian factor with relative
// standard deviation frac. The factor is clamped to [0.1, 3] so extreme
// draws cannot produce negative or absurd times.
func noisy(rng *rand.Rand, base, frac float64) float64 {
	if frac <= 0 || rng == nil {
		return base
	}
	factor := 1 + rng.NormFloat64()*frac
	if factor < 0.1 {
		factor = 0.1
	}
	if factor > 3 {
		factor = 3
	}
	return base * factor
}

// TransferTime returns the wire time for a message of the given size,
// including jitter. It does not include the sender/receiver CPU
// overheads.
func (m *Model) TransferTime(rng *rand.Rand, size int64) float64 {
	if size < 0 {
		size = 0
	}
	base := m.cfg.LatencyUS + float64(size)/m.cfg.BandwidthBytesPerUS
	return noisy(rng, base, m.cfg.JitterFrac)
}

// SendOverhead returns the CPU time the sender spends handing the message
// to the library.
func (m *Model) SendOverhead() float64 { return m.cfg.SendOverheadUS }

// RecvOverhead returns the CPU time the receiver spends completing a
// receive.
func (m *Model) RecvOverhead() float64 { return m.cfg.RecvOverheadUS }

// ComputeTime returns the wall time of a compute phase whose nominal
// duration is base, including load-imbalance noise.
func (m *Model) ComputeTime(rng *rand.Rand, base float64) float64 {
	if base < 0 {
		base = 0
	}
	return noisy(rng, base, m.cfg.ImbalanceFrac)
}

// UsesRendezvous reports whether a message of the given size is sent with
// the rendezvous protocol rather than eagerly.
func (m *Model) UsesRendezvous(size int64) bool {
	return size > m.cfg.EagerLimitBytes
}

// RendezvousHandshake returns the extra time a rendezvous send pays before
// the payload transfer starts: a request-to-send and a clear-to-send
// control message plus fixed protocol overhead.
func (m *Model) RendezvousHandshake(rng *rand.Rand) float64 {
	rts := m.TransferTime(rng, 0)
	cts := m.TransferTime(rng, 0)
	return rts + cts + m.cfg.RendezvousExtraUS
}

// EagerLimit returns the configured eager/rendezvous switch point.
func (m *Model) EagerLimit() int64 { return m.cfg.EagerLimitBytes }

// PointToPointLatency returns the end-to-end latency of a single message
// of the given size under the current protocol rules, without jitter.
// The scalability analysis of Section 2.3 uses it to compare rendezvous
// and prediction-enabled eager sends for large messages.
func (m *Model) PointToPointLatency(size int64, forceEager bool) float64 {
	base := m.cfg.SendOverheadUS + m.cfg.LatencyUS + float64(size)/m.cfg.BandwidthBytesPerUS + m.cfg.RecvOverheadUS
	if !forceEager && m.UsesRendezvous(size) {
		base += 2*m.cfg.LatencyUS + m.cfg.RendezvousExtraUS
	}
	return base
}
