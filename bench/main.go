// Command bench is the repository benchmark. It drives the system from
// outside, through the public entry points of its packages, on four
// workloads: online DPD ingest over the binary wire protocol (serve-dpd),
// the cluster gateway over HTTP backends (gateway-markov1), the paper's
// experiment grid from a warm columnar trace cache (paper-grid) and
// columnar trace-store writes and scans (store-scan).
//
// A run measures for -seconds seconds and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics. With -trace 0 the metrics are the end-to-end ones;
// with -trace 1 the run replays the same inputs layer by layer and the
// metrics are the per-layer ones. Every run checks the system's outputs
// after timing and exits with status 1 when a check or an operation
// failed. Build and run it through bench/run.sh:
//
//	bash bench/run.sh --workload serve-dpd --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named input set and the function that runs it.
type workload struct {
	name string
	run  func(ctx context.Context, p params) (*report, error)
}

var benchWorkloads = []workload{
	{"serve-dpd", runServeDPD},
	{"gateway-markov1", runGateway},
	{"paper-grid", runPaperGrid},
	{"store-scan", runStoreScan},
}

// params are the inputs of one workload run. The seed is the only input
// the command line chooses; the sizes are fixed so that two commits do
// identical work per operation, and only tests shrink them.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workers int // nproc: worker pools, connections and load goroutines
	sizes   sizes
}

// sizes fixes the input and replay sizes of every workload.
type sizes struct {
	iterations   int           // outer-iteration override of simulated grids (0 = class-A default)
	dpdSeeds     int           // serve-dpd simulates seeds S..S+dpdSeeds-1
	gwTenants    int           // gateway-markov1 replicates the grid under this many tenants
	gwWarmup     time.Duration // gateway-markov1 closed-loop warm-up before timing
	storeEvents  int           // store-scan events per stream level (0 = the store benchmark's size)
	replayFrames int           // serve-dpd frames replayed layer by layer
	replaySteps  int           // gateway-markov1 steps replayed layer by layer
	allocSteps   int           // gateway-markov1 steps of the allocation passes
}

func defaultSizes() sizes {
	return sizes{
		dpdSeeds:     4,
		gwTenants:    64,
		gwWarmup:     2 * time.Second,
		replayFrames: 1500,
		replaySteps:  1000,
		allocSteps:   200,
	}
}

// overheadPairs is how many untraced and traced replays a trace run
// alternates to measure the tracing overhead.
const overheadPairs = 3

// setupReps is how often each workload sets up per run; setup_s is the
// median, so that one slow set-up does not move it.
const setupReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the run measures, in seconds")
	traceMode := fs.Int("trace", 0, "1 replays the inputs layer by layer and prints the per-layer metrics")
	spansPath := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "bench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	}
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (known: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	p := params{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceMode == 1,
		workers: runtime.NumCPU(),
		sizes:   defaultSizes(),
	}
	runtime.GOMAXPROCS(p.workers)
	printHeader(stdout, w.name, p)

	rep, err := w.run(context.Background(), p)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if p.trace && *spansPath != "" {
		if err := writeSpans(*spansPath, rep.spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	res, err := rep.result(p.trace)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rep.printDiagnostics(stdout, p.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		for _, pr := range rep.problems {
			fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, pr)
		}
		return 1
	}
	return 0
}

// metricDef names one metric of BENCHMARK.json and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what an event and a latency sample are on
// each workload is listed in bench/README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics of single layers, from the -trace 1 replay. A
// workload whose path bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"wire.read_frame_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"serve.observe_block_ns_per_event", "ns/event"},
	{"serve.registry_self_ns_per_event", "ns/event"},
	{"serve.forecast_ns", "ns"},
	{"serve.glue_ns_per_event", "ns/event"},
	{"serve.http_observe_ns", "ns"},
	{"serve.http_predict_ns", "ns"},
	{"serve.http_self_ns", "ns"},
	{"serve.http_allocs", "allocs/op"},
	{"strategy.observe_ns", "ns"},
	{"strategy.predict_ns", "ns"},
	{"strategy.calls", "count"},
	{"core.detector_observe_ns", "ns"},
	{"core.observe_locked_ns", "ns"},
	{"core.observe_learning_ns", "ns"},
	{"core.locked_share", "share"},
	{"core.locks", "count"},
	{"core.unlocks", "count"},
	{"cluster.owner_ns", "ns"},
	{"cluster.gateway_observe_ns", "ns"},
	{"cluster.gateway_predict_ns", "ns"},
	{"cluster.hop_ns", "ns"},
	{"cluster.gateway_allocs", "allocs/op"},
	{"tracestore.load_ns_per_event", "ns/event"},
	{"tracestore.write_ns_per_event", "ns/event"},
	{"tracestore.bytes_per_event", "B/event"},
	{"tracestore.read_partition_ns_per_event", "ns/event"},
	{"tracestore.topk_ns_per_event", "ns/event"},
	{"tracestore.windows_ns_per_event", "ns/event"},
	{"tracestore.phases_ns_per_event", "ns/event"},
	{"tracestore.parallel_efficiency", "share"},
	{"tracestore.blocks_read", "count"},
	{"evalx.evaluate_ns_per_event", "ns/event"},
	{"evalx.scorer_self_ns_per_event", "ns/event"},
	{"evalx.runner_busy_share", "share"},
	{"evalx.table1_row_ns_per_event", "ns/event"},
	{"evalx.table1_allocs", "allocs/op"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_share", "share"},
}

// report is what a workload run measured and checked.
type report struct {
	attempted int64
	failed    int64
	problems  []string // output checks that failed

	values  map[string]float64
	samples map[string]int // how many samples a value summarizes
	notes   []string       // diagnostics that are not metrics
	spans   []Span
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value measured from n samples.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *report) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops counts a phase's operations.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the printed object: every end-to-end metric (they must
// all have been measured), or every per-layer metric (0 where the
// workload's path bypasses the layer).
func (r *report) result(trace bool) (result, error) {
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// printDiagnostics prints every reported metric with its unit and sample
// count, then the notes, as comment lines ahead of the JSON result.
func (r *report) printDiagnostics(w io.Writer, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "# %-40s %16.6g %-9s n=%d\n", d.name, r.values[d.name], d.unit, r.samples[d.name])
	}
	sort.Strings(r.notes)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# ops attempted=%d failed=%d checks_failed=%d\n", r.attempted, r.failed, len(r.problems))
}
