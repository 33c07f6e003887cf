package evalx

import (
	"mpipredict/internal/core"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracecache"
	"mpipredict/internal/workloads"
)

// Table1Row is one row of the reproduced Table 1, together with the
// paper's reference values when available.
type Table1Row struct {
	App        string
	Procs      int
	Receiver   int
	P2PMsgs    int
	CollMsgs   int
	MsgSizes   int
	Senders    int
	PaperP2P   int // 0 when the paper has no value for this configuration
	PaperColl  int
	PaperSizes int
	PaperSend  int
}

// Table1 reproduces Table 1: it simulates every (workload, process count)
// pair of the paper and characterises the traced receiver's stream. The
// rows are computed in parallel (Options.Parallelism) against the shared
// trace cache. Options.Iterations can shrink the runs for quick looks;
// the bench harness uses the full defaults.
func Table1(opts Options) ([]Table1Row, error) {
	return NewRunner(opts.Parallelism).Table1(opts)
}

// table1SingleCached computes one row of Table 1 with an explicit trace
// source.
func table1SingleCached(spec workloads.Spec, opts Options, cache *tracecache.Cache) (Table1Row, error) {
	if opts.Iterations > 0 {
		spec.Iterations = opts.Iterations
	}
	receiver, err := workloads.TypicalReceiver(spec.Name, spec.Procs)
	if err != nil {
		return Table1Row{}, err
	}
	tr, err := getTrace(workloads.RunConfig{
		Spec:           spec,
		Net:            opts.Net,
		Seed:           opts.Seed,
		TraceReceivers: []int{receiver},
	}, cache)
	if err != nil {
		return Table1Row{}, err
	}
	return Table1RowFromTrace(tr, receiver), nil
}

// Table1RowFromTrace characterises one receiver of an existing trace as a
// Table 1 row, attaching the paper's reference values when the trace's
// (app, procs) pair appears in the paper. The CLIs use it to reproduce
// Table 1 rows from traces loaded from disk, and because it only reads the
// trace, a replayed row is identical to the row the in-memory simulation
// path produces for the same trace.
func Table1RowFromTrace(tr *trace.Trace, receiver int) Table1Row {
	// A TraceSource never fails, so the streaming characterisation cannot
	// either; the wrapper keeps the historical error-free signature.
	row, _ := Table1RowFromSource(func() (stream.Source, error) { return stream.TraceSource(tr), nil }, receiver)
	return row
}

// Table1P2PRelativeError returns the mean relative error of the
// reproduced point-to-point message counts against the paper's values,
// over the rows for which the paper reports a value. It is the headline
// fidelity metric of the Table 1 benchmark and of cmd/benchjson; both
// share this definition so the tracked trajectory cannot drift.
func Table1P2PRelativeError(rows []Table1Row) float64 {
	var relErr float64
	var n int
	for _, r := range rows {
		if r.PaperP2P > 0 {
			diff := float64(r.P2PMsgs-r.PaperP2P) / float64(r.PaperP2P)
			if diff < 0 {
				diff = -diff
			}
			relErr += diff
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return relErr / float64(n)
}

// Figure1Result captures the Figure 1 experiment: the iterative pattern of
// the sender and size streams received by process 3 of BT.9.
type Figure1Result struct {
	App          string
	Procs        int
	Receiver     int
	SenderPeriod int
	SizePeriod   int
	// Excerpt holds the first few periods of both streams so callers can
	// plot or print them.
	SenderExcerpt []int64
	SizeExcerpt   []int64
}

// Figure1 reproduces Figure 1: it runs BT on 9 processes, extracts the
// logical sender and size streams of process 3, detects their period and
// returns an excerpt covering a few periods. The paper reports a period
// of 18 for both streams.
func Figure1(opts Options) (Figure1Result, error) {
	opts = opts.withDefaults()
	spec := workloads.Spec{Name: "bt", Procs: 9, Iterations: opts.Iterations}
	receiver, err := workloads.TypicalReceiver(spec.Name, spec.Procs)
	if err != nil {
		return Figure1Result{}, err
	}
	tr, err := getTrace(workloads.RunConfig{
		Spec:           spec,
		Net:            opts.Net,
		Seed:           opts.Seed,
		TraceReceivers: []int{receiver},
	}, optsCache(opts))
	if err != nil {
		return Figure1Result{}, err
	}
	// The figure plots the iterative point-to-point pattern; the handful
	// of setup/verification collectives are not part of it.
	senders, sizes := tr.StreamsOfKind(receiver, trace.Logical, trace.PointToPoint)
	res := Figure1Result{App: spec.Name, Procs: spec.Procs, Receiver: receiver}
	detCfg := core.DefaultConfig()
	if p, ok := core.DetectPeriod(senders, detCfg); ok {
		res.SenderPeriod = p
	}
	if p, ok := core.DetectPeriod(sizes, detCfg); ok {
		res.SizePeriod = p
	}
	excerpt := 4 * 18
	if excerpt > len(senders) {
		excerpt = len(senders)
	}
	res.SenderExcerpt = append([]int64(nil), senders[:excerpt]...)
	res.SizeExcerpt = append([]int64(nil), sizes[:excerpt]...)
	return res, nil
}

// Figure2Result captures the Figure 2 experiment: the logical vs physical
// sender streams of process 3 of BT.4.
type Figure2Result struct {
	App             string
	Procs           int
	Receiver        int
	Logical         []int64
	Physical        []int64
	MismatchPercent float64
}

// Figure2 reproduces Figure 2: BT on 4 processes, the logical and physical
// sender streams of the traced process, and the fraction of positions at
// which physical arrival order deviates from program order.
func Figure2(opts Options) (Figure2Result, error) {
	opts = opts.withDefaults()
	spec := workloads.Spec{Name: "bt", Procs: 4, Iterations: opts.Iterations}
	receiver, err := workloads.TypicalReceiver(spec.Name, spec.Procs)
	if err != nil {
		return Figure2Result{}, err
	}
	tr, err := getTrace(workloads.RunConfig{
		Spec:           spec,
		Net:            opts.Net,
		Seed:           opts.Seed,
		TraceReceivers: []int{receiver},
	}, optsCache(opts))
	if err != nil {
		return Figure2Result{}, err
	}
	logical := tr.SenderStream(receiver, trace.Logical)
	physical := tr.SenderStream(receiver, trace.Physical)
	return Figure2Result{
		App:             spec.Name,
		Procs:           spec.Procs,
		Receiver:        receiver,
		Logical:         logical,
		Physical:        physical,
		MismatchPercent: 100 * MismatchFraction(logical, physical),
	}, nil
}

// FigureCell is one bar of Figures 3 and 4: the prediction accuracy for
// one workload, process count, stream kind and horizon at one level.
type FigureCell struct {
	App      string
	Procs    int
	Kind     StreamKind
	Level    trace.Level
	Horizon  int
	Accuracy float64
}

// FigureResult is the full data behind Figure 3 (logical level) or
// Figure 4 (physical level).
type FigureResult struct {
	Level trace.Level
	Cells []FigureCell
}

// SweepAll runs the prediction experiment for every paper configuration
// and returns the per-configuration results, keyed in Table 1 order. The
// experiments run in parallel (Options.Parallelism) against the shared
// trace cache; the results are identical to a serial sweep.
func SweepAll(opts Options) ([]Result, error) {
	return NewRunner(opts.Parallelism).SweepAll(opts)
}

// FiguresFromResults derives the Figure 3 and Figure 4 data from a
// completed sweep.
func FiguresFromResults(opts Options, results []Result) (logical, physical FigureResult) {
	opts = opts.withDefaults()
	return figureFromResults(trace.Logical, opts, results),
		figureFromResults(trace.Physical, opts, results)
}

func figureFromResults(level trace.Level, opts Options, results []Result) FigureResult {
	fig := FigureResult{Level: level}
	for _, res := range results {
		for _, kind := range []StreamKind{SenderStream, SizeStream} {
			for k := 1; k <= DefaultHorizons; k++ {
				fig.Cells = append(fig.Cells, FigureCell{
					App:      res.App,
					Procs:    res.Procs,
					Kind:     kind,
					Level:    level,
					Horizon:  k,
					Accuracy: res.Accuracy(kind, level, k),
				})
			}
		}
	}
	return fig
}

// MinAccuracy returns the smallest accuracy among the cells matching the
// given workload (empty string matches all) and stream kind.
func (f FigureResult) MinAccuracy(app string, kind StreamKind) float64 {
	min := 1.0
	found := false
	for _, c := range f.Cells {
		if app != "" && c.App != app {
			continue
		}
		if c.Kind != kind {
			continue
		}
		found = true
		if c.Accuracy < min {
			min = c.Accuracy
		}
	}
	if !found {
		return 0
	}
	return min
}

// MeanAccuracy returns the average accuracy among cells matching the given
// workload (empty string matches all) and stream kind.
func (f FigureResult) MeanAccuracy(app string, kind StreamKind) float64 {
	var sum float64
	var n int
	for _, c := range f.Cells {
		if app != "" && c.App != app {
			continue
		}
		if c.Kind != kind {
			continue
		}
		sum += c.Accuracy
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
