package evalx

import (
	"fmt"

	"mpipredict/internal/core"
	"mpipredict/internal/simnet"
	"mpipredict/internal/strategy"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracecache"
	"mpipredict/internal/workloads"
)

// StreamKind names the two streams the paper predicts per receiver.
type StreamKind string

const (
	// SenderStream is the sequence of sending ranks.
	SenderStream StreamKind = "sender"
	// SizeStream is the sequence of message sizes.
	SizeStream StreamKind = "size"
)

// Options control a workload prediction experiment.
type Options struct {
	// Net is the interconnect configuration; the zero value selects
	// simnet.DefaultConfig (noise on), which is what Figures 3 and 4 use:
	// the logical stream is unaffected by noise while the physical stream
	// picks it up.
	Net simnet.Config
	// Seed drives the simulation.
	Seed int64
	// Strategy selects the predictor by registered strategy name
	// (internal/strategy: "dpd", "lastvalue", "markov1", "meta"); the
	// CLIs thread their -predictor flags through it. Empty means the
	// paper's DPD; unknown names fail the experiment.
	Strategy string
	// Iterations overrides the workload's outer iteration count (0 keeps
	// the class-A default). The figure experiments keep the default; the
	// unit tests shrink it.
	Iterations int
	// Parallelism bounds the number of experiments evaluated concurrently
	// by the sweep entry points (Table1, SweepAll). Zero
	// selects GOMAXPROCS; one reproduces the serial behaviour. Results
	// are identical for every setting — only wall-clock time changes.
	Parallelism int
	// NoCache bypasses the shared trace cache, forcing every experiment
	// to re-simulate its workload. Results are unaffected (simulations
	// are deterministic); it exists for cold-path measurements and for
	// tests that must exercise the full pipeline.
	NoCache bool
	// Cache, when non-nil, supplies simulated traces instead of the
	// process-wide tracecache.Shared. The CLIs pass a disk-backed cache
	// (tracecache.NewDiskStore) here so the evaluation grid survives
	// process restarts. Ignored when NoCache is set.
	Cache *tracecache.Cache
}

func (o Options) withDefaults() Options {
	if o.Net == (simnet.Config{}) {
		o.Net = simnet.DefaultConfig()
	}
	return o
}

// factory validates Options.Strategy (empty selects strategy.Default) and
// returns a factory building a fresh strategy of that name per evaluated
// stream, along with the name for Result.Strategy.
func (o Options) factory() (PredictorFactory, string, error) {
	name := o.Strategy
	if name == "" {
		name = strategy.Default
	}
	if !strategy.Known(name) {
		return nil, "", fmt.Errorf("evalx: unknown strategy %q (known: %v)", name, strategy.Names())
	}
	return func() strategy.Strategy {
		s, err := strategy.New(name, core.DefaultConfig())
		if err != nil {
			// Known was checked above; a failure here is a programming
			// error in the registry.
			panic(err)
		}
		return s
	}, name, nil
}

// Result is the outcome of one (workload, process count) experiment: the
// accuracy of sender and size prediction at both instrumentation levels,
// plus the Table 1 characterisation of the traced receiver.
type Result struct {
	App      string
	Procs    int
	Receiver int

	// Strategy is the registry name of the strategy that produced the
	// accuracy numbers (Options.Strategy, "dpd" by default).
	Strategy string

	// Characterisation of the receiver's logical stream (Table 1 row).
	Characterization trace.Characterization

	// Accuracy indexed by level and stream kind.
	Sender map[trace.Level]StreamAccuracy
	Size   map[trace.Level]StreamAccuracy

	// SenderSetAccuracy is the order-free accuracy of the next-5 sender set at
	// the physical level (Section 5.3).
	SenderSetAccuracy float64

	// Reordering is the fraction of positions at which the physical
	// sender stream differs from the logical one (Figure 2's effect).
	Reordering float64
}

// getTrace simulates a workload through the given cache, or directly when
// cache is nil.
func getTrace(rc workloads.RunConfig, cache *tracecache.Cache) (*trace.Trace, error) {
	if cache == nil {
		return workloads.Run(rc)
	}
	return cache.Get(rc)
}

// optsCache resolves the cache implied by the options alone: nil when
// caching is disabled, the explicitly supplied cache when there is one,
// the shared cache otherwise.
func optsCache(opts Options) *tracecache.Cache {
	if opts.NoCache {
		return nil
	}
	if opts.Cache != nil {
		return opts.Cache
	}
	return tracecache.Shared
}

// RunExperiment simulates one workload instance and evaluates prediction
// accuracy on the streams of the workload's typical receiver (the rank the
// paper traces). Callers that need a different receiver can run the
// workload themselves and use EvaluateTrace.
func RunExperiment(spec workloads.Spec, opts Options) (Result, error) {
	return runExperimentCached(spec, opts.withDefaults(), optsCache(opts))
}

// runExperimentCached is RunExperiment with an explicit trace source; the
// parallel Runner passes its own cache.
func runExperimentCached(spec workloads.Spec, opts Options, cache *tracecache.Cache) (Result, error) {
	if err := workloads.Validate(spec); err != nil {
		return Result{}, err
	}
	if opts.Iterations > 0 {
		spec.Iterations = opts.Iterations
	}
	receiver, err := workloads.TypicalReceiver(spec.Name, spec.Procs)
	if err != nil {
		return Result{}, err
	}

	tr, err := getTrace(workloads.RunConfig{
		Spec:           spec,
		Net:            opts.Net,
		Seed:           opts.Seed,
		TraceReceivers: []int{receiver},
	}, cache)
	if err != nil {
		return Result{}, err
	}
	return EvaluateTrace(tr, receiver, opts)
}

// EvaluateTrace evaluates prediction accuracy on an existing trace for the
// given receiver. It is used directly by tools that load traces from disk.
// It is a thin wrapper over the streaming evaluator: the trace is played
// through EvaluateSource block by block, so the in-memory and streamed
// paths cannot drift apart (the golden corpus tests pin them identical).
func EvaluateTrace(tr *trace.Trace, receiver int, opts Options) (Result, error) {
	return EvaluateSource(func() (stream.Source, error) { return stream.TraceSource(tr), nil }, receiver, opts)
}

// Accuracy returns the accuracy for the requested stream kind, level and
// horizon.
func (r Result) Accuracy(kind StreamKind, level trace.Level, horizon int) float64 {
	switch kind {
	case SenderStream:
		return r.Sender[level].Accuracy(horizon)
	case SizeStream:
		return r.Size[level].Accuracy(horizon)
	default:
		return 0
	}
}
