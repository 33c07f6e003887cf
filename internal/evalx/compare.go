package evalx

import (
	"fmt"

	"mpipredict/internal/strategy"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

// StrategyComparison sets the paper's DPD against the baseline strategies
// on a workload grid: for every (workload, process count) cell and every
// strategy it records the mean +1..+Horizons sender-stream accuracy at
// both instrumentation levels. It is the quantitative version of the
// paper's Section 6 argument — the reason the strategy layer exists.
type StrategyComparison struct {
	// Strategies lists the compared strategy names in column order.
	Strategies []string
	// Horizons is the prediction depth the means average over.
	Horizons int
	// Rows holds one entry per compared workload spec, in input order.
	Rows []StrategyComparisonRow
}

// StrategyComparisonRow is one workload's accuracy across strategies.
type StrategyComparisonRow struct {
	App   string
	Procs int
	// Logical and Physical map strategy name to the mean sender-stream
	// accuracy at that instrumentation level.
	Logical  map[string]float64
	Physical map[string]float64
}

// ComparisonSpecs returns one representative spec per paper workload (the
// smallest evaluated process count), the default grid of the strategy
// comparison: every benchmark is covered without sweeping the full paper
// grid once per strategy.
func ComparisonSpecs() []workloads.Spec {
	return []workloads.Spec{
		{Name: "bt", Procs: 4},
		{Name: "cg", Procs: 4},
		{Name: "lu", Procs: 4},
		{Name: "is", Procs: 4},
		{Name: "sweep3d", Procs: 6},
	}
}

// CompareStrategies evaluates every named strategy on every spec and
// assembles the comparison. Nil names selects all registered strategies;
// nil specs selects ComparisonSpecs. The runner's trace cache makes the
// sweep cheap: all strategies share one simulation per spec, so the cost
// scales with predictor evaluation, not with simulation.
func (r *Runner) CompareStrategies(names []string, specs []workloads.Spec, opts Options) (StrategyComparison, error) {
	if names == nil {
		names = strategy.Names()
	}
	if specs == nil {
		specs = ComparisonSpecs()
	}
	opts = opts.withDefaults()
	cmp := StrategyComparison{Strategies: names, Horizons: DefaultHorizons}
	cmp.Rows = make([]StrategyComparisonRow, len(specs))
	for i, spec := range specs {
		cmp.Rows[i] = StrategyComparisonRow{
			App:      spec.Name,
			Procs:    spec.Procs,
			Logical:  make(map[string]float64, len(names)),
			Physical: make(map[string]float64, len(names)),
		}
	}
	for _, name := range names {
		runOpts := opts
		runOpts.Strategy = name
		results, err := r.Evaluate(specs, runOpts)
		if err != nil {
			return StrategyComparison{}, fmt.Errorf("evalx: comparing strategy %q: %w", name, err)
		}
		for i, res := range results {
			cmp.Rows[i].Logical[name] = res.Sender[trace.Logical].Mean()
			cmp.Rows[i].Physical[name] = res.Sender[trace.Physical].Mean()
		}
	}
	return cmp, nil
}

// CompareStrategies is the package-level convenience wrapper around a
// fresh runner with the options' parallelism.
func CompareStrategies(names []string, specs []workloads.Spec, opts Options) (StrategyComparison, error) {
	return NewRunner(opts.Parallelism).CompareStrategies(names, specs, opts)
}
