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
//   - the evaluation harness that reproduces Table 1 and Figures 1-4, and
//   - the three scalability mechanisms of Section 2 (prediction-driven
//     buffer allocation, credit-based flow control and rendezvous
//     elimination).
//
// A typical use looks like:
//
//	res, err := mpipredict.Evaluate(mpipredict.WorkloadSpec{Name: "bt", Procs: 9}, mpipredict.EvalOptions{})
//	if err != nil { ... }
//	fmt.Printf("logical +1 sender accuracy: %.1f%%\n",
//	    100*res.Accuracy(mpipredict.SenderStream, mpipredict.Logical, 1))
//
// See the package examples and the examples/ directory for runnable
// programs, and cmd/mpipredict for the experiment driver that regenerates
// every table and figure of the paper.
package mpipredict

import (
	"context"

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
	"mpipredict/internal/tracecache"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/wire"
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
	// Prediction is a single multi-step-ahead prediction.
	Prediction = core.Prediction
	// MessagePredictor couples a sender-stream and a size-stream
	// strategy into per-message forecasts.
	MessagePredictor = scalability.MessagePredictor
	// MessageForecast is the joint (sender, size) forecast for one future
	// message.
	MessageForecast = scalability.MessageForecast
	// Strategy is the full per-stream prediction-model contract: online
	// observation, multi-step prediction with buffer reuse, and
	// serializable state. Every layer selects its model through the
	// strategy registry ("dpd", "lastvalue", "markov1", "meta").
	Strategy = strategy.Strategy
	// StrategyDesc identifies a strategy instance (registry name and
	// configuration summary).
	StrategyDesc = strategy.Desc
)

// Trace and simulation types.
type (
	// Trace is a recorded set of receive events at both instrumentation
	// levels.
	Trace = trace.Trace
	// TraceRecord is one receive event.
	TraceRecord = trace.Record
	// Level distinguishes logical from physical instrumentation.
	Level = trace.Level
	// StreamKind selects the sender or the size stream.
	StreamKind = evalx.StreamKind
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
	// WorkloadInfo describes one benchmark skeleton.
	WorkloadInfo = workloads.Info
)

// Evaluation types.
type (
	// EvalOptions controls a prediction experiment. Set Parallelism to
	// bound the worker pool used by the sweep entry points (0 selects
	// GOMAXPROCS) and NoCache to bypass the shared trace cache.
	EvalOptions = evalx.Options
	// EvalRunner executes experiment grids over a bounded worker pool
	// with deterministic, order-preserving results.
	EvalRunner = evalx.Runner
	// EvalResult is the outcome of one prediction experiment.
	EvalResult = evalx.Result
	// StreamAccuracy holds per-horizon accuracies for one stream.
	StreamAccuracy = evalx.StreamAccuracy
	// Table1Row is one row of the reproduced Table 1.
	Table1Row = evalx.Table1Row
	// FigureResult is the data behind Figure 3 or Figure 4.
	FigureResult = evalx.FigureResult
	// StrategyComparison sets the DPD against the baseline strategies on
	// a workload grid.
	StrategyComparison = evalx.StrategyComparison
	// StrategyComparisonRow is one workload's accuracy across strategies.
	StrategyComparisonRow = evalx.StrategyComparisonRow
	// Figure1Result is the data behind Figure 1.
	Figure1Result = evalx.Figure1Result
	// Figure2Result is the data behind Figure 2.
	Figure2Result = evalx.Figure2Result
)

// Serving types (the online prediction service behind cmd/mpipredictd).
type (
	// PredictorSnapshot is the complete serializable state of a
	// StreamPredictor.
	PredictorSnapshot = core.PredictorSnapshot
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
	// ServeSessionInfo is the introspection view of one session.
	ServeSessionInfo = serve.SessionInfo
	// SessionSnapshot is one session's persistent predictor state.
	SessionSnapshot = serve.SessionSnapshot
	// ReplayOptions control feeding a recorded trace through a daemon's
	// observe API.
	ReplayOptions = serve.ReplayOptions
	// ReplayStats summarise one trace replay.
	ReplayStats = serve.ReplayStats
	// WireServer serves the binary columnar wire protocol for a
	// ServeServer's registry (the daemon's -listen-wire listener).
	WireServer = serve.WireServer
	// WireClient is one pipelined wire-protocol connection.
	WireClient = wire.Client
	// WireClientOptions configure DialWire (pipeline window, timeout).
	WireClientOptions = wire.ClientOptions
	// LoadGenOptions configure the synthetic load generator.
	LoadGenOptions = serve.LoadGenOptions
	// LoadGenStats summarise one load-generation run (events delivered,
	// duplicates absorbed, events/s).
	LoadGenStats = serve.LoadGenStats
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
	// ClusterOptions tune the gateway's backend client: per-attempt
	// deadline, retry budget and backoff base.
	ClusterOptions = cluster.Options
)

// Streaming event-pipeline types (internal/stream): the batched
// Source/Sink abstraction every layer moves events through.
type (
	// EventBlock is a columnar batch of trace events — the unit of the
	// streaming pipeline.
	EventBlock = stream.EventBlock
	// EventSource produces blocks of events (io.EOF terminated).
	EventSource = stream.Source
	// EventSink consumes blocks of events.
	EventSink = stream.Sink
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

// NoiselessNetworkConfig returns the interconnect model with all noise
// terms disabled; logical and physical streams then describe the same
// deterministic behaviour.
func NoiselessNetworkConfig() NetworkConfig { return simnet.NoiselessConfig() }

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

// RestoreStrategy rebuilds a strategy of the named kind from a payload
// previously produced by Strategy.Snapshot, validating it in full.
func RestoreStrategy(name string, payload []byte) (Strategy, error) {
	return strategy.Restore(name, payload)
}

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

// Workloads lists the available benchmark skeletons.
func Workloads() []WorkloadInfo { return workloads.Catalog() }

// PaperWorkloads returns one spec per (benchmark, process count) pair
// evaluated in the paper, in Table 1 order.
func PaperWorkloads() []WorkloadSpec { return workloads.PaperSpecs() }

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

// RunWorkloadCached is RunWorkload through the shared trace cache: the
// first call for a (spec, net, seed) key simulates, subsequent calls —
// including concurrent ones, which wait for the single simulation — share
// the stored trace. The returned trace is shared and must be treated as
// read-only; concurrent readers are safe.
func RunWorkloadCached(spec WorkloadSpec, net NetworkConfig, seed int64) (*Trace, error) {
	return tracecache.Shared.Get(workloads.RunConfig{Spec: spec, Net: net, Seed: seed})
}

// RunWorkloadAllReceivers simulates a benchmark recording every rank's
// streams.
func RunWorkloadAllReceivers(spec WorkloadSpec, net NetworkConfig, seed int64) (*Trace, error) {
	return workloads.Run(workloads.RunConfig{Spec: spec, Net: net, Seed: seed, TraceAllReceivers: true})
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

// NewEvalRunner returns a runner that fans experiment grids out over at
// most `parallelism` goroutines (0 selects GOMAXPROCS). Identical seeds
// yield identical tables and figures for every parallelism setting.
func NewEvalRunner(parallelism int) *EvalRunner { return evalx.NewRunner(parallelism) }

// TraceCacheStats reports the hit/miss counters of the shared trace cache
// used by the evaluation entry points.
func TraceCacheStats() tracecache.Stats { return tracecache.Shared.Stats() }

// ClearTraceCache drops every cached workload trace. Long-running
// processes that sweep many seeds can call it between sweeps to bound
// memory.
func ClearTraceCache() { tracecache.Shared.Clear() }

// EvaluateTrace evaluates prediction accuracy on an existing trace.
func EvaluateTrace(tr *Trace, receiver int, opts EvalOptions) (EvalResult, error) {
	return evalx.EvaluateTrace(tr, receiver, opts)
}

// EvaluateSource evaluates prediction accuracy over a streamed event
// source in constant memory — the block-pipeline sibling of
// EvaluateTrace. The opener is invoked once per evaluation pass.
func EvaluateSource(open EventSourceOpener, receiver int, opts EvalOptions) (EvalResult, error) {
	return evalx.EvaluateSource(open, receiver, opts)
}

// OpenTraceSource opens a trace file (a .mpts store or JSONL) as a block
// source; TraceSource streams an in-memory trace; PerturbSource applies
// a seeded, deterministic robustness perturbation; MergeSources
// interleaves several sources by event time.
func OpenTraceSource(path string) (EventSource, error) {
	src, err := stream.OpenFile(path)
	if err != nil {
		// Return an untyped nil, not a nil *FileSource boxed in the
		// interface, so `src != nil` keeps meaning "usable".
		return nil, err
	}
	return src, nil
}

// TraceSource streams an in-memory trace as event blocks.
func TraceSource(tr *Trace) EventSource { return stream.TraceSource(tr) }

// PerturbSource wraps a source with deterministic, seeded perturbation
// (adjacent swaps and drops) for robustness scenarios.
func PerturbSource(src EventSource, cfg PerturbConfig) EventSource { return stream.Perturb(src, cfg) }

// MergeSources interleaves several event sources by event time, keeping
// each source's per-stream order intact.
func MergeSources(srcs ...EventSource) EventSource { return stream.Merge(srcs...) }

// Table1 reproduces Table 1 of the paper.
func Table1(opts EvalOptions) ([]Table1Row, error) { return evalx.Table1(opts) }

// Figure1 reproduces Figure 1 (the BT.9 iterative pattern).
func Figure1(opts EvalOptions) (Figure1Result, error) { return evalx.Figure1(opts) }

// Figure2 reproduces Figure 2 (logical vs physical sender stream of BT.4).
func Figure2(opts EvalOptions) (Figure2Result, error) { return evalx.Figure2(opts) }

// Figures34 reproduces Figures 3 and 4 (logical and physical prediction
// accuracy across every benchmark and process count) from a single sweep.
func Figures34(opts EvalOptions) (logical, physical FigureResult, err error) {
	results, err := evalx.SweepAll(opts)
	if err != nil {
		return FigureResult{}, FigureResult{}, err
	}
	logical, physical = evalx.FiguresFromResults(opts, results)
	return logical, physical, nil
}

// RestorePredictor rebuilds a stream predictor from a snapshot taken with
// StreamPredictor.Snapshot, validating the state in full.
func RestorePredictor(s PredictorSnapshot) (*StreamPredictor, error) {
	return core.RestoreStreamPredictor(s)
}

// NewServeRegistry returns an empty session registry for the online
// prediction service.
func NewServeRegistry(cfg ServeConfig) *ServeRegistry { return serve.NewRegistry(cfg) }

// NewServeServer wraps a registry in the service's HTTP/JSON API
// (observe, predict, sessions, healthz, expvar metrics).
func NewServeServer(reg *ServeRegistry) *ServeServer { return serve.NewServer(reg) }

// NewWireServer attaches a binary wire-protocol listener shell to an
// HTTP server: same registry, same readiness/drain/overload gates, same
// seq dedup (DESIGN.md §10). Run its Serve on a net.Listener.
func NewWireServer(s *ServeServer) *WireServer { return serve.NewWireServer(s) }

// DialWire connects and handshakes a pipelined wire-protocol client.
func DialWire(ctx context.Context, addr string, opts WireClientOptions) (*WireClient, error) {
	return wire.Dial(ctx, addr, opts)
}

// RunLoadGen drives synthetic periodic sessions into the daemon at
// target — over the wire protocol when advertised, HTTP otherwise — and
// reports delivered events, duplicates and throughput.
func RunLoadGen(ctx context.Context, target string, opts LoadGenOptions) (LoadGenStats, error) {
	return serve.LoadGen(ctx, target, opts)
}

// NewShardMap builds the rendezvous-hash shard map over the given
// backend base URLs (order-insensitive; duplicates rejected).
func NewShardMap(backends []string) (*ShardMap, error) { return cluster.NewShardMap(backends) }

// NewClusterGateway wraps a shard map in the cluster's HTTP front door —
// the handler cmd/mpigateway serves.
func NewClusterGateway(shards *ShardMap, opts ClusterOptions) *ClusterGateway {
	return cluster.NewGateway(shards, opts)
}

// PartitionSessionSnapshot splits a single daemon's session snapshot by
// shard ownership; MergeSessionSnapshots is its inverse, recombining
// per-backend snapshots into one canonically ordered set.
func PartitionSessionSnapshot(sessions []SessionSnapshot, m *ShardMap) map[string][]SessionSnapshot {
	return cluster.PartitionSnapshot(sessions, m)
}

// MergeSessionSnapshots recombines per-backend session snapshots into
// one canonically ordered set.
func MergeSessionSnapshots(parts ...[]SessionSnapshot) []SessionSnapshot {
	return cluster.MergeSnapshots(parts...)
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

// ReplayTrace feeds a recorded trace through the observe API of the
// prediction daemon at baseURL, one session per traced (receiver, level)
// stream. Delivery is effectively-once: batches are sequenced and
// transient failures retried; cancelling ctx aborts the replay.
func ReplayTrace(ctx context.Context, baseURL string, tr *Trace, opts ReplayOptions) (ReplayStats, error) {
	return serve.Replay(ctx, baseURL, tr, opts)
}

// SaveTrace and LoadTrace persist traces as JSON lines.
func SaveTrace(path string, tr *Trace) error { return trace.SaveFile(path, tr) }

// LoadTrace reads a trace in any supported format — JSONL or columnar
// .mpts — via the trace.Open sniffing point.
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }

// SaveTraceStore persists a trace as a partitioned columnar store
// (.mpts): the analytics-oriented on-disk format whose projected,
// footer-pruned parallel scans answer workload queries without
// materializing the trace. Written atomically (temp file + rename).
func SaveTraceStore(path string, tr *Trace) error { return tracestore.SaveTrace(path, tr) }

// OpenTraceStore opens a .mpts file for scanning. The returned
// TraceStore exposes the partition scanner and the built-in
// aggregations (TopKSenders, TimeWindows, PhaseBoundaries).
func OpenTraceStore(path string) (*TraceStore, error) { return tracestore.Open(path) }

// TraceStore is a reader over the partitioned columnar trace format.
type TraceStore = tracestore.Reader

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
