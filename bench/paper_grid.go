package main

// paper-grid: the paper's own result, the way `mpipredict -cache-dir DIR
// -cache-format mpts` produces it. Set-up simulates the grid into a
// columnar trace cache; every rep opens a fresh cache over that warm
// directory and runs Figures 3/4, then Table 1. The DPD is driven by the
// evalx scorer's five-predicts-per-observe pattern with no transport,
// and store decoding is a small share.

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"mpipredict/internal/benchdefs"
	"mpipredict/internal/core"
	"mpipredict/internal/evalx"
	"mpipredict/internal/strategy"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracecache"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/workloads"
)

// The seed-1 headline metrics of the class-A grid, as BENCH_9.json
// records them.
const (
	paperSenderMean = 94.05324891511691
	paperP2PRelErr  = 0.030080729469599787
)

type gridSpec struct {
	spec     workloads.Spec
	receiver int
	path     string // the spec's .mpts cache entry
	events   int64
}

type gridEnv struct {
	dir               string
	opts              evalx.Options // without a cache; each rep supplies its own
	logical, physical evalx.FigureResult
	rows              []evalx.Table1Row
	specs             []gridSpec
	events            int64
}

func gridSetup(p params) (*gridEnv, error) {
	dir, err := os.MkdirTemp("", "bench-grid-*")
	if err != nil {
		return nil, err
	}
	env := &gridEnv{dir: dir, opts: evalx.Options{Seed: p.seed, Iterations: p.sizes.iterations}}
	c := tracecache.NewDiskStore(dir)
	opts := env.opts
	opts.Cache = c
	r := &evalx.Runner{Parallelism: p.workers, Cache: c}
	if env.logical, env.physical, err = r.Figures34(opts); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if env.rows, err = r.Table1(opts); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for _, spec := range workloads.PaperSpecs() {
		spec.Iterations = p.sizes.iterations
		gs := gridSpec{spec: spec}
		if gs.receiver, err = workloads.TypicalReceiver(spec.Name, spec.Procs); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		key, err := tracecache.KeyFor(workloads.RunConfig{Spec: spec, Seed: p.seed, TraceReceivers: []int{gs.receiver}})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		gs.path = tracecache.StorePath(dir, key)
		rd, err := tracestore.Open(gs.path)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		gs.events = rd.Events()
		rd.Close()
		env.specs = append(env.specs, gs)
		env.events += gs.events
	}
	return env, nil
}

// gridRep runs one rep over a fresh cache on the warm directory and
// checks its results against set-up's.
func gridRep(rep *report, p params, env *gridEnv) (figures, table1 time.Duration, err error) {
	c := tracecache.NewDiskStore(env.dir)
	opts := env.opts
	opts.Cache = c
	r := &evalx.Runner{Parallelism: p.workers, Cache: c}
	start := time.Now()
	logical, physical, err := r.Figures34(opts)
	figures = time.Since(start)
	if err != nil {
		return figures, 0, fmt.Errorf("figures 3/4: %w", err)
	}
	start = time.Now()
	rows, err := r.Table1(opts)
	table1 = time.Since(start)
	if err != nil {
		return figures, table1, fmt.Errorf("table 1: %w", err)
	}
	if !reflect.DeepEqual(logical, env.logical) || !reflect.DeepEqual(physical, env.physical) {
		rep.problem("a rep's Figures 3/4 differ from set-up's")
	}
	if !reflect.DeepEqual(rows, env.rows) {
		rep.problem("a rep's Table 1 differs from set-up's")
	}
	if st := c.Stats(); st.Misses != 0 {
		rep.problem("a rep re-simulated %d grid cells instead of reading the warm store", st.Misses)
	}
	return figures, table1, nil
}

func runPaperGrid(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	env, err := timedSetups(rep, func() (*gridEnv, error) { return gridSetup(p) }, func(e *gridEnv) { os.RemoveAll(e.dir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	if p.seed == 1 && p.sizes.iterations == 0 {
		got := benchdefs.Figure3LogicalMetrics(env.logical)["sender-mean-%"]
		if got != paperSenderMean {
			rep.problem("seed 1 sender-mean-%% is %v, BENCH_9 records %v", got, paperSenderMean)
		}
		if got := evalx.Table1P2PRelativeError(env.rows); got != paperP2PRelErr {
			rep.problem("seed 1 p2p-relative-error is %v, BENCH_9 records %v", got, paperP2PRelErr)
		}
	}
	rep.note("grid: %d specs, %d typical-receiver events", len(env.specs), env.events)

	var reps, table1 []float64
	var lastFigures time.Duration
	before := readMem()
	start := time.Now()
	for len(reps) == 0 || (!p.trace && time.Since(start) < p.seconds) {
		figures, tab, err := gridRep(rep, p, env)
		rep.ops(2, 0)
		if err != nil {
			rep.ops(0, 1)
			rep.problem("rep %d: %v", len(reps), err)
			return rep, nil
		}
		lastFigures = figures
		reps = append(reps, ms(figures+tab))
		table1 = append(table1, ms(tab))
	}
	after := readMem()
	setRuntimeLayer(rep, before, after, len(reps))
	lat := summarize(reps)
	rep.set("events_per_s", float64(env.events)/(lat.p50/1e3), lat.n)
	setLatency(rep, "rep (Figures 3/4 + Table 1)", lat)
	rep.note("Table 1 part: median %.4f ms over %d reps", median(table1), len(table1))
	rep.set("max_rss_mb", maxRSSMiB(), 1)

	if p.trace {
		if err := gridLayers(rep, p, env, lastFigures); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// gridStreams4 are one spec's four predicted streams: logical sender and
// size, physical sender and size.
type gridStreams4 [4][]int64

// gridLayers replays the specs layer by layer, then times the strategy
// calls one by one.
func gridLayers(rep *report, p params, env *gridEnv, figuresWall time.Duration) error {
	// One pair: the replay takes seconds, so one run each already
	// averages over thousands of spans.
	var streams []gridStreams4
	t, err := tracedReplays(rep, 1, func(t *tracer) error {
		var err error
		streams, err = gridReplay(rep, env, t)
		return err
	})
	if err != nil {
		return err
	}

	tt := totals(t.spans)
	load, eval, row := total(tt, "tracestore.load"), total(tt, "evalx.evaluate"), total(tt, "evalx.table1_row")
	events := float64(env.events)
	rep.set("tracestore.load_ns_per_event", load.dur/events, load.spans)
	rep.set("evalx.evaluate_ns_per_event", eval.dur/events, eval.spans)
	rep.set("evalx.scorer_self_ns_per_event", eval.self/events, eval.spans)
	rep.set("evalx.runner_busy_share", (load.dur+eval.dur)/(float64(figuresWall)*float64(p.workers)), eval.spans)
	rep.set("evalx.table1_row_ns_per_event", row.dur/events, row.spans)
	rep.note("tracestore.load / evalx.evaluate: %.4f", load.dur/max(eval.dur, 1))

	allocs, err := table1Allocs(p, env)
	if err != nil {
		return err
	}
	rep.set("evalx.table1_allocs", allocs, 1)
	gridStrategyCalls(rep, streams)
	return nil
}

// gridReplay loads every spec's store entry with tracestore.LoadFile,
// evaluates it with evalx.EvaluateSource and characterizes it with
// evalx.Table1RowFromSource. A shadow replay of the scorer's call pattern
// on fresh dpd strategies stands in for the predictor calls inside the
// evaluation. It returns each spec's streams.
func gridReplay(rep *report, env *gridEnv, t *tracer) ([]gridStreams4, error) {
	streams := make([]gridStreams4, len(env.specs))
	for i, gs := range env.specs {
		req := int64(i)
		root := t.begin("spec", -1, req, 0)
		id := t.begin("tracestore.load", root, req, 1)
		tr, _, err := tracestore.LoadFile(gs.path)
		t.end(id)
		if err != nil {
			return nil, err
		}
		open := func() (stream.Source, error) { return stream.TraceSource(tr), nil }
		id = t.begin("evalx.evaluate", root, req, 1)
		_, err = evalx.EvaluateSource(open, gs.receiver, env.opts)
		t.end(id)
		if err != nil {
			return nil, err
		}
		s := gridStreams4{
			tr.SenderStream(gs.receiver, trace.Logical), tr.SizeStream(gs.receiver, trace.Logical),
			tr.SenderStream(gs.receiver, trace.Physical), tr.SizeStream(gs.receiver, trace.Physical),
		}
		streams[i] = s
		sid := t.shadow("strategy.scorer_pattern", id, req, 6*(len(s[0])+len(s[1])+2*len(s[2])+len(s[3])))
		for _, xs := range s {
			scorerPattern(strategy.NewDPD(core.DefaultConfig()), xs, false)
		}
		scorerPattern(strategy.NewDPD(core.DefaultConfig()), s[2], true)
		t.end(sid)
		id = t.begin("evalx.table1_row", root, req, 1)
		row, err := evalx.Table1RowFromSource(open, gs.receiver)
		t.end(id)
		if err != nil {
			return nil, err
		}
		if row != env.rows[i] {
			rep.problem("replayed Table 1 row %d differs from set-up's", i)
		}
		t.end(root)
	}
	return streams, nil
}

// scorerPattern drives s the way the evalx scorers drive a predictor:
// before each observation it asks for +1..+5. The order-free set scorer
// stops asking at the first abstention.
func scorerPattern(s strategy.Strategy, xs []int64, set bool) {
	for _, x := range xs {
		for k := 1; k <= evalx.DefaultHorizons; k++ {
			if _, ok := s.Predict(k); !ok && set {
				break
			}
		}
		s.Observe(x)
	}
}

// gridStrategyCalls replays the scorer pattern once more with every
// observe and every batch of predicts timed on its own (so each figure
// includes one clock read), and a shadow core detector per stream.
func gridStrategyCalls(rep *report, streams []gridStreams4) {
	var split stateSplit
	var predictNs, detNs float64
	var predicts, detCalls int
	var counters core.Counters
	for _, s := range streams {
		for j, xs := range [][]int64{s[0], s[1], s[2], s[3], s[2]} {
			set := j == 4
			st := strategy.NewDPD(core.DefaultConfig())
			sp := st.Stream()
			for _, x := range xs {
				t0 := time.Now()
				n := 0
				for k := 1; k <= evalx.DefaultHorizons; k++ {
					n++
					if _, ok := st.Predict(k); !ok && set {
						break
					}
				}
				t1 := time.Now()
				locked := sp.State() == core.Locked
				st.Observe(x)
				d := float64(time.Since(t1))
				predictNs += float64(t1.Sub(t0))
				predicts += n
				if locked {
					split.lockedNs += d
					split.lockedCalls++
				} else {
					split.learningNs += d
					split.learningCalls++
				}
			}
			counters = addCounters(counters, sp.Counters())
			if set {
				continue
			}
			det := core.NewDetector(core.DefaultConfig())
			start := time.Now()
			for _, x := range xs {
				det.Observe(x)
			}
			detNs += float64(time.Since(start))
			detCalls += len(xs)
		}
	}
	observes := split.lockedCalls + split.learningCalls
	rep.set("strategy.observe_ns", (split.lockedNs+split.learningNs)/float64(max(observes, 1)), observes)
	rep.set("strategy.predict_ns", predictNs/float64(max(predicts, 1)), predicts)
	rep.set("strategy.calls", float64(observes+predicts), 1)
	rep.set("core.detector_observe_ns", detNs/float64(max(detCalls, 1)), detCalls)
	split.report(rep)
	rep.set("core.locks", float64(counters.Locks), 1)
	rep.set("core.unlocks", float64(counters.Unlocks), 1)
}

// table1Allocs counts the heap allocations of one Runner.Table1 over a
// cache whose memory tier is warm, as in a rep.
func table1Allocs(p params, env *gridEnv) (float64, error) {
	c := tracecache.NewDiskStore(env.dir)
	opts := env.opts
	opts.Cache = c
	r := &evalx.Runner{Parallelism: p.workers, Cache: c}
	if _, err := r.Table1(opts); err != nil {
		return 0, err
	}
	before := readMem()
	if _, err := r.Table1(opts); err != nil {
		return 0, err
	}
	after := readMem()
	return float64(after.mallocs - before.mallocs), nil
}
