// Package mpipredict is the public facade of the reproduction of
// "Exploring the Predictability of MPI Messages" (Freitag, Caubet,
// Farrera, Cortes, Labarta — IPDPS 2003).
//
// The package wires together the building blocks that live under
// internal/:
//
//   - the Dynamic Periodicity Detector based stream predictor (the paper's
//     contribution) and the prediction strategies it is compared against,
//   - a simulated MPI runtime with dual-level (logical / physical) receive
//     tracing and communication skeletons of the five benchmarks the
//     paper studies (NAS BT, CG, LU, IS and ASCI Sweep3D),
//   - the evaluation harness that reproduces Table 1 and Figures 1-4,
//   - the three scalability mechanisms of Section 2 (prediction-driven
//     buffer allocation, credit-based flow control and rendezvous
//     elimination), and
//   - the online prediction service and its sharded gateway.
//
// A typical use looks like:
//
//	res, err := mpipredict.Evaluate(mpipredict.WorkloadSpec{Name: "bt", Procs: 9}, mpipredict.EvalOptions{})
//	if err != nil { ... }
//	fmt.Printf("logical +1 sender accuracy: %.1f%%\n",
//	    100*res.Accuracy(mpipredict.SenderStream, mpipredict.Logical, 1))
//
// Every export is run by one of the package's checked examples; see them
// for runnable programs, and cmd/mpipredict for the experiment driver
// that regenerates every table and figure of the paper.
package mpipredict

import (
	"mpipredict/internal/cluster"
	"mpipredict/internal/core"
	"mpipredict/internal/evalx"
	"mpipredict/internal/report"
	"mpipredict/internal/scalability"
	"mpipredict/internal/serve"
	"mpipredict/internal/simmpi"
	"mpipredict/internal/simnet"
	"mpipredict/internal/strategy"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/workloads"
)

// Core predictor types.
type (
	// PredictorConfig configures the DPD window geometry and locking
	// policy.
	PredictorConfig = core.Config
	// StreamPredictor is the online DPD-based predictor for a single
	// value stream (sender ranks or message sizes).
	StreamPredictor = core.StreamPredictor
	// MessagePredictor couples a sender-stream and a size-stream
	// strategy into per-message forecasts.
	MessagePredictor = scalability.MessagePredictor
	// Strategy is the full per-stream prediction-model contract: online
	// observation, multi-step prediction with buffer reuse, and
	// serializable state. Every layer selects its model through the
	// strategy registry ("dpd", "lastvalue", "markov1", "meta").
	Strategy = strategy.Strategy
)

// Trace and simulation types.
type (
	// Trace is a recorded set of receive events at both instrumentation
	// levels.
	Trace = trace.Trace
	// NetworkConfig parameterises the simulated interconnect.
	NetworkConfig = simnet.Config
	// RuntimeConfig configures a raw simulated MPI run.
	RuntimeConfig = simmpi.Config
	// Rank is the per-process handle available to simulated MPI programs.
	Rank = simmpi.Rank
	// Program is a simulated SPMD rank program.
	Program = simmpi.Program
	// WorkloadSpec selects one benchmark instance (name, process count,
	// optional iteration override).
	WorkloadSpec = workloads.Spec
)

// Evaluation types.
type (
	// EvalOptions controls a prediction experiment. Set Parallelism to
	// bound the worker pool used by the sweep entry points (0 selects
	// GOMAXPROCS) and NoCache to bypass the shared trace cache.
	EvalOptions = evalx.Options
	// EvalResult is the outcome of one prediction experiment.
	EvalResult = evalx.Result
	// StrategyComparison sets the DPD against the baseline strategies on
	// a workload grid.
	StrategyComparison = evalx.StrategyComparison
	// Figure1Result is the data behind Figure 1.
	Figure1Result = evalx.Figure1Result
)

// Serving types (the online prediction service behind cmd/mpipredictd).
type (
	// ServeConfig parameterises the session registry (shards, capacity,
	// idle TTL, predictor configuration).
	ServeConfig = serve.Config
	// ServeRegistry is the sharded session registry hosting one message
	// predictor per (tenant, stream) key.
	ServeRegistry = serve.Registry
	// ServeServer is the HTTP/JSON face of a registry.
	ServeServer = serve.Server
	// ServeEvent is one observed message (sender, size), the element of
	// an observe request's "events" array.
	ServeEvent = serve.Event
	// ServeForecast is one future-message forecast with per-stream ok
	// flags.
	ServeForecast = serve.Forecast
	// SessionSnapshot is one session's persistent predictor state.
	SessionSnapshot = serve.SessionSnapshot
)

// Clustering types (the sharded serving tier behind cmd/mpigateway).
type (
	// ShardMap is an immutable rendezvous-hash assignment of
	// (tenant, stream) session keys to backend daemons.
	ShardMap = cluster.ShardMap
	// ClusterGateway serves the daemon HTTP surface over a fleet of
	// backends, routing keyed requests to their shard owner and fanning
	// unkeyed queries out with partial-failure accounting.
	ClusterGateway = cluster.Gateway
	// ClusterOptions tune the gateway's backend client: HTTP client,
	// per-attempt deadline, retry budget and backoff base.
	ClusterOptions = cluster.Options
)

// Streaming event-pipeline types (internal/stream): the batched
// Source abstraction every layer moves events through.
type (
	// EventSource produces blocks of events (io.EOF terminated).
	EventSource = stream.Source
	// EventSourceOpener opens a fresh source over the same events; the
	// multi-pass handle streaming evaluation consumes.
	EventSourceOpener = stream.OpenFunc
	// PerturbConfig parameterizes the deterministic robustness transform.
	PerturbConfig = stream.PerturbConfig
)

// Scalability types.
type (
	// BufferConfig configures prediction-driven buffer allocation.
	BufferConfig = scalability.BufferConfig
	// BufferStats is the outcome of a buffer-allocation replay.
	BufferStats = scalability.BufferStats
	// CreditConfig configures credit-based flow control.
	CreditConfig = scalability.CreditConfig
	// CreditStats is the outcome of a flow-control replay.
	CreditStats = scalability.CreditStats
	// ProtocolConfig configures the rendezvous-elimination advisor.
	ProtocolConfig = scalability.ProtocolConfig
	// ProtocolStats is the outcome of a protocol replay.
	ProtocolStats = scalability.ProtocolStats
)

// Instrumentation levels and stream kinds.
const (
	// Logical is the order in which application-level receives complete.
	Logical = trace.Logical
	// Physical is the order in which messages arrive at the receiver.
	Physical = trace.Physical
	// SenderStream selects the stream of sending ranks.
	SenderStream = evalx.SenderStream
	// SizeStream selects the stream of message sizes.
	SizeStream = evalx.SizeStream
)

// DefaultPredictorConfig returns the DPD configuration used throughout the
// paper reproduction.
func DefaultPredictorConfig() PredictorConfig { return core.DefaultConfig() }

// DefaultNetworkConfig returns the interconnect model used by the
// experiments (noise on).
func DefaultNetworkConfig() NetworkConfig { return simnet.DefaultConfig() }

// NewPredictor returns the paper's DPD-based stream predictor.
func NewPredictor(cfg PredictorConfig) *StreamPredictor {
	return core.NewStreamPredictor(cfg)
}

// NewStrategy builds a prediction strategy by registered name (the empty
// name selects the default, the paper's DPD). The configuration
// parameterizes the DPD; strategies without tunables ignore it.
func NewStrategy(name string, cfg PredictorConfig) (Strategy, error) {
	return strategy.New(name, cfg)
}

// Strategies lists the registered prediction-strategy names.
func Strategies() []string { return strategy.Names() }

// CompareStrategies evaluates the named strategies (nil = all registered)
// on the given workloads (nil = one representative spec per benchmark)
// and returns the per-workload accuracy comparison.
func CompareStrategies(names []string, specs []WorkloadSpec, opts EvalOptions) (StrategyComparison, error) {
	return evalx.CompareStrategies(names, specs, opts)
}

// FormatStrategyComparison renders a strategy comparison as the plain-text
// table cmd/mpipredict prints for -experiment compare.
func FormatStrategyComparison(cmp StrategyComparison) string {
	return report.StrategyComparison(cmp)
}

// NewMessagePredictor returns a DPD-based joint (sender, size) forecaster.
func NewMessagePredictor(cfg PredictorConfig) *MessagePredictor {
	return scalability.NewDPDMessagePredictor(cfg)
}

// TypicalReceiver returns the rank whose streams the experiments trace for
// a workload.
func TypicalReceiver(name string, procs int) (int, error) {
	return workloads.TypicalReceiver(name, procs)
}

// RunWorkload simulates a benchmark and returns its dual-level trace for
// the typical receiver.
func RunWorkload(spec WorkloadSpec, net NetworkConfig, seed int64) (*Trace, error) {
	return workloads.Run(workloads.RunConfig{Spec: spec, Net: net, Seed: seed})
}

// RunProgram executes a hand-written SPMD program on the simulated MPI
// runtime and returns its trace.
func RunProgram(cfg RuntimeConfig, program Program) (*Trace, error) {
	return simmpi.Run(cfg, program)
}

// Evaluate runs one prediction experiment (simulate the workload, predict
// the traced receiver's sender and size streams at both levels).
func Evaluate(spec WorkloadSpec, opts EvalOptions) (EvalResult, error) {
	return evalx.RunExperiment(spec, opts)
}

// EvaluateSource evaluates prediction accuracy over a streamed event
// source in constant memory. The opener is invoked once per evaluation
// pass.
func EvaluateSource(open EventSourceOpener, receiver int, opts EvalOptions) (EvalResult, error) {
	return evalx.EvaluateSource(open, receiver, opts)
}

// OpenTraceSource opens a trace file (a .mpts store or JSONL) as a block
// source.
func OpenTraceSource(path string) (EventSource, error) {
	src, err := stream.OpenFile(path)
	if err != nil {
		// Return an untyped nil, not a nil *FileSource boxed in the
		// interface, so `src != nil` keeps meaning "usable".
		return nil, err
	}
	return src, nil
}

// PerturbSource wraps a source with deterministic, seeded perturbation
// (adjacent swaps and drops) for robustness scenarios.
func PerturbSource(src EventSource, cfg PerturbConfig) EventSource { return stream.Perturb(src, cfg) }

// Figure1 reproduces Figure 1 (the BT.9 iterative pattern).
func Figure1(opts EvalOptions) (Figure1Result, error) { return evalx.Figure1(opts) }

// NewServeRegistry returns an empty session registry for the online
// prediction service.
func NewServeRegistry(cfg ServeConfig) *ServeRegistry { return serve.NewRegistry(cfg) }

// NewServeServer wraps a registry in the service's HTTP/JSON API
// (observe, predict, sessions, healthz, expvar metrics).
func NewServeServer(reg *ServeRegistry) *ServeServer { return serve.NewServer(reg) }

// NewShardMap builds the rendezvous-hash shard map over the given
// backend base URLs (order-insensitive; duplicates rejected).
func NewShardMap(backends []string) (*ShardMap, error) { return cluster.NewShardMap(backends) }

// NewClusterGateway wraps a shard map in the cluster's HTTP front door —
// the handler cmd/mpigateway serves.
func NewClusterGateway(shards *ShardMap, opts ClusterOptions) *ClusterGateway {
	return cluster.NewGateway(shards, opts)
}

// SaveSessionSnapshots writes session predictor states to a versioned,
// checksummed snapshot file (atomic replace); LoadSessionSnapshots reads
// one back, rejecting any corruption.
func SaveSessionSnapshots(path string, sessions []SessionSnapshot) error {
	return serve.SaveSnapshotFile(path, sessions)
}

// LoadSessionSnapshots reads a snapshot file written by
// SaveSessionSnapshots.
func LoadSessionSnapshots(path string) ([]SessionSnapshot, error) {
	return serve.LoadSnapshotFile(path)
}

// SaveTraceStore persists a trace as a partitioned columnar store
// (.mpts), the on-disk format OpenTraceSource streams back. Written
// atomically (temp file + rename).
func SaveTraceStore(path string, tr *Trace) error { return tracestore.SaveTrace(path, tr) }

// ReplayBuffers replays a trace through the Section 2.1 prediction-driven
// buffer manager.
func ReplayBuffers(tr *Trace, receiver int, cfg BufferConfig) (BufferStats, error) {
	return scalability.ReplayBuffers(tr, receiver, cfg)
}

// ReplayCredits replays a trace through the Section 2.2 credit-based flow
// control.
func ReplayCredits(tr *Trace, receiver int, eagerBytes int64, cfg CreditConfig) (CreditStats, error) {
	return scalability.ReplayCredits(tr, receiver, eagerBytes, cfg)
}

// ReplayProtocol replays a trace through the Section 2.3 rendezvous
// elimination advisor.
func ReplayProtocol(tr *Trace, receiver int, cfg ProtocolConfig) (ProtocolStats, error) {
	return scalability.ReplayProtocol(tr, receiver, cfg)
}

// StaticBufferMemory returns the per-process memory of the conventional
// one-buffer-per-peer scheme (Section 2.1's 16 KB x N argument).
func StaticBufferMemory(procs int, perPeerBytes int64) int64 {
	return scalability.StaticBufferMemory(procs, perPeerBytes)
}
