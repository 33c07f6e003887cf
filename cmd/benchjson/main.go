// Command benchjson runs the repository's headline benchmarks through
// testing.Benchmark and writes the results — ns/op, allocations and the
// reproduced paper metrics — to a JSON file, so the performance trajectory
// of the project can be tracked across PRs by committing one snapshot per
// change.
//
// Usage:
//
//	benchjson                 # writes BENCH_<n>.json (next free n) in the cwd
//	benchjson -out bench.json # explicit output path
//	benchjson -run 'figure3'  # only benchmarks whose name matches the regexp
//	benchjson -list           # print benchmark names and exit
//	benchjson -run '^serve-' -baseline BENCH_3.json -max-regress 20
//	                          # re-measure and fail on >20% throughput loss
//
// The cached benchmarks are warmed first (one full sweep populates the
// shared trace cache), so their numbers report the steady-state cost of
// regenerating a table or figure; the *-cold-serial entries measure the
// uncached, single-worker pipeline for comparison. The serve-* entries
// measure the online prediction service's observe/predict paths.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mpipredict/internal/benchdefs"
	"mpipredict/internal/buildinfo"
	"mpipredict/internal/cliutil"
	"mpipredict/internal/strategy"
)

// entry is one named benchmark. Cached marks benchmarks that read the
// shared trace cache and therefore want it warmed before measuring.
type entry struct {
	Name   string
	Cached bool
	Fn     func(b *testing.B)
}

// result is the JSON record for one benchmark.
type result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// snapshot is the file layout.
type snapshot struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// ReferenceNsPerOp is the host-reference microbenchmark: a fixed
	// CPU-bound workload measured alongside every snapshot. Two snapshots
	// whose references diverge were taken on machines (or under load
	// conditions) that are not comparable in absolute ns/op, and the
	// baseline gate downgrades failures to warnings accordingly.
	ReferenceNsPerOp float64  `json:"reference_ns_per_op,omitempty"`
	Results          []result `json:"results"`
}

// refSink defeats dead-code elimination of the reference workload.
var refSink uint64

// referenceNsPerOp measures the fixed host-reference microbenchmark: a
// few thousand rounds of integer mixing per op, pure CPU and cache-local,
// so the number tracks the machine's single-thread speed and nothing
// about this repository's code. It is deliberately not a repo benchmark:
// a real code path would conflate host drift with the very regressions
// the gate exists to catch.
func referenceNsPerOp() float64 {
	r := testing.Benchmark(func(b *testing.B) {
		acc := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < b.N; i++ {
			for j := 0; j < 4096; j++ {
				acc = (acc ^ uint64(j)) * 1099511628211
				acc ^= acc >> 33
			}
		}
		refSink = acc
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func reportMetrics(b *testing.B, metrics map[string]float64) {
	for name, value := range metrics {
		b.ReportMetric(value, name)
	}
}

// benchmarks mirrors the headline entries of the root bench_test.go; both
// draw their option sets and metric computations from internal/benchdefs,
// so the JSON snapshots always measure what `go test -bench .` measures.
func benchmarks() []entry {
	return []entry{
		{"table1", true, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := benchdefs.Table1Metrics(benchdefs.Opts())
				if err != nil {
					b.Fatal(err)
				}
				reportMetrics(b, m)
			}
		}},
		{"figure1", true, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := benchdefs.Figure1Metrics(benchdefs.Opts())
				if err != nil {
					b.Fatal(err)
				}
				reportMetrics(b, m)
			}
		}},
		{"figure2", true, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := benchdefs.Figure2Metrics(benchdefs.Opts())
				if err != nil {
					b.Fatal(err)
				}
				reportMetrics(b, m)
			}
		}},
		{"figures34", true, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				logical, physical, err := benchdefs.Figures34(benchdefs.Opts())
				if err != nil {
					b.Fatal(err)
				}
				reportMetrics(b, benchdefs.Figure3LogicalMetrics(logical))
				reportMetrics(b, benchdefs.Figure4PhysicalMetrics(physical))
			}
		}},
		{"figure3-cold-serial", false, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				logical, _, err := benchdefs.Figures34(benchdefs.ColdSerialOpts())
				if err != nil {
					b.Fatal(err)
				}
				reportMetrics(b, benchdefs.Figure3LogicalMetrics(logical))
			}
		}},
		{"serve-observe", false, func(b *testing.B) {
			env := benchdefs.NewServeBenchEnv()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.ObserveHTTP(i); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportThroughput(b)
		}},
		{"serve-observe-batch", false, func(b *testing.B) {
			env := benchdefs.NewServeBenchEnv()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.ObserveBatchHTTP(i); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportBatchThroughput(b)
		}},
		{"serve-predict", false, func(b *testing.B) {
			env := benchdefs.NewServeBenchEnv()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.PredictHTTP(); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportThroughput(b)
		}},
		{"serve-registry-observe", false, func(b *testing.B) {
			env := benchdefs.NewServeBenchEnv()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.ObserveDirect(i)
			}
			benchdefs.ReportThroughput(b)
		}},
		{"serve-observe-block", false, func(b *testing.B) {
			env := benchdefs.NewServeBenchEnv()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.ObserveBlockHTTP(i); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportBatchThroughput(b)
		}},
		{"serve-observe-block-markov1", false, func(b *testing.B) {
			// The HTTP twin of wire-observe-block: same columnar block,
			// same cheap model, so the pair isolates transport cost.
			env := benchdefs.NewServeBenchEnvFor(benchdefs.WireBenchStrategy)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.ObserveBlockHTTP(i); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportBatchThroughput(b)
		}},
		{"wire-observe-block", false, func(b *testing.B) {
			env, err := benchdefs.NewWireBenchEnv()
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.ObserveBlockWire(); err != nil {
					b.Fatal(err)
				}
			}
			// Drain inside the measured interval: every one of the b.N
			// pipelined blocks must be acknowledged before the clock stops.
			if err := env.FlushObserves(); err != nil {
				b.Fatal(err)
			}
			benchdefs.ReportBatchThroughput(b)
		}},
		{"wire-predict", false, func(b *testing.B) {
			env, err := benchdefs.NewWireBenchEnv()
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.PredictWire(); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportThroughput(b)
		}},
		{"gateway-observe", false, func(b *testing.B) {
			env, err := benchdefs.NewGatewayBenchEnv()
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.ObserveHTTP(i); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportThroughput(b)
		}},
		{"gateway-observe-batch", false, func(b *testing.B) {
			env, err := benchdefs.NewGatewayBenchEnv()
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.ObserveBatchHTTP(i); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportBatchThroughput(b)
		}},
		{"gateway-predict", false, func(b *testing.B) {
			env, err := benchdefs.NewGatewayBenchEnv()
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.PredictHTTP(); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportThroughput(b)
		}},
		{"serve-registry-observe-block", false, func(b *testing.B) {
			env := benchdefs.NewServeBenchEnv()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.ObserveBlockDirect(i); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportBatchThroughput(b)
		}},
		{"store-scan-topk", false, func(b *testing.B) {
			env, err := benchdefs.StoreBench()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.ScanTopK(0); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportEventsThroughput(b, env.Events)
		}},
		{"store-scan-projected", false, func(b *testing.B) {
			env, err := benchdefs.StoreBench()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.ScanProjectedSizeSum(0); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportEventsThroughput(b, env.Events)
		}},
		{"store-write", false, func(b *testing.B) {
			env, err := benchdefs.StoreBench()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.WriteStore(); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportEventsThroughput(b, env.Events)
		}},
		{"store-record-stream", false, func(b *testing.B) {
			// The replay path: every record through trace.Open/Read.
			env, err := benchdefs.StoreBench()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.RecordStream(); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportEventsThroughput(b, env.Events)
		}},
		{"trace-load-topk", false, func(b *testing.B) {
			// The baseline of store-scan-topk: materialize the whole store
			// through trace.Load, then iterate. The events/s ratio between
			// the two entries is the scan engine's headline speedup.
			env, err := benchdefs.StoreBench()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.LoadIterateTopK(); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportEventsThroughput(b, env.Events)
		}},
	}
}

// strategyBenchmarks appends one observe and one predict entry per
// registered prediction strategy, so the committed snapshots track every
// model's hot-path throughput side by side.
func strategyBenchmarks(entries []entry) []entry {
	for _, name := range strategy.Names() {
		name := name
		entries = append(entries, entry{"strategy-observe-" + name, false, func(b *testing.B) {
			env, err := benchdefs.NewStrategyBenchEnv(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Observe()
			}
			benchdefs.ReportThroughput(b)
		}})
		entries = append(entries, entry{"strategy-predict-" + name, false, func(b *testing.B) {
			env, err := benchdefs.NewStrategyBenchEnv(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.Predict(); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportThroughput(b)
		}})
	}
	return entries
}

// coreBenchmarks appends one observe entry per core DPD layer (bare
// detector; locked, learning and churning predictor): the layers below
// strategy-observe-dpd in the per-layer ledger.
func coreBenchmarks(entries []entry) []entry {
	for _, layer := range benchdefs.CoreBenchLayers {
		entries = append(entries, entry{"core-" + layer, false, func(b *testing.B) {
			env, err := benchdefs.NewCoreBenchEnv(layer)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Observe()
			}
			b.StopTimer()
			if err := env.Check(); err != nil {
				b.Fatal(err)
			}
			benchdefs.ReportThroughput(b)
		}})
	}
	return entries
}

// allBenchmarks is every entry benchjson knows, in -list order.
func allBenchmarks() []entry {
	return coreBenchmarks(strategyBenchmarks(benchmarks()))
}

// nextFreePath returns the first BENCH_<n>.json (n = 1, 2, ...) that does
// not exist yet in the current directory.
func nextFreePath() string {
	for n := 1; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "output path (default: next free BENCH_<n>.json)")
	pattern := fs.String("run", "", "only run benchmarks whose name matches this regexp")
	baseline := fs.String("baseline", "", "compare throughput against this earlier snapshot and fail on regressions")
	maxRegress := fs.Float64("max-regress", 20, "with -baseline: tolerated throughput drop in percent")
	list := fs.Bool("list", false, "list benchmark names and exit")
	versionFlag := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionFlag {
		fmt.Fprintln(stdout, buildinfo.CLIVersion("benchjson"))
		return nil
	}
	if *baseline == "" && len(cliutil.SetFlags(fs, "max-regress")) > 0 {
		return fmt.Errorf("-max-regress has no effect without -baseline; drop it")
	}
	if *maxRegress < 0 || *maxRegress >= 100 {
		return fmt.Errorf("-max-regress must be in [0, 100)")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	all := allBenchmarks()
	if *list {
		for _, e := range all {
			fmt.Fprintln(stdout, e.Name)
		}
		return nil
	}

	var re *regexp.Regexp
	if *pattern != "" {
		var err error
		re, err = regexp.Compile(*pattern)
		if err != nil {
			return fmt.Errorf("bad -run pattern: %v", err)
		}
	}
	selected := func(name string) bool { return re == nil || re.MatchString(name) }

	// Warm the shared trace cache so the cached benchmarks report their
	// steady-state cost rather than a blend of first-run simulation and
	// cache hits. Skipped when the -run filter selects only benchmarks
	// that would gain nothing from a warm cache (the cold-serial pipeline
	// and the serve paths, which never touch the simulator).
	warmNeeded := false
	for _, e := range all {
		if e.Cached && selected(e.Name) {
			warmNeeded = true
		}
	}
	if warmNeeded {
		if _, _, err := benchdefs.Figures34(benchdefs.Opts()); err != nil {
			return fmt.Errorf("cache warm-up failed: %v", err)
		}
	}

	fmt.Fprintln(stderr, "benchjson: measuring host reference...")
	snap := snapshot{
		GeneratedAt:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		ReferenceNsPerOp: referenceNsPerOp(),
	}
	for _, e := range all {
		if !selected(e.Name) {
			continue
		}
		fmt.Fprintf(stderr, "benchjson: running %s...\n", e.Name)
		r := testing.Benchmark(e.Fn)
		res := result{
			Name:        e.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		snap.Results = append(snap.Results, res)
	}
	sort.Slice(snap.Results, func(i, j int) bool { return snap.Results[i].Name < snap.Results[j].Name })

	path := *out
	if path == "" {
		path = nextFreePath()
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, path)
	if *baseline != "" {
		return compareBaseline(snap, *baseline, *maxRegress, stdout)
	}
	return nil
}

// throughputMetrics are the higher-is-better metrics the baseline gate
// compares; latency-style metrics and paper-fidelity numbers are
// deliberately ignored (they have their own tests).
var throughputMetrics = []string{"ops/s", "events/s"}

// compareBaseline fails when any benchmark present in both snapshots
// lost more than maxRegress percent of a throughput metric against the
// baseline — the CI smoke gate that keeps the observe/predict hot paths
// from silently regressing across PRs.
//
// Absolute ns/op is only meaningful when both snapshots came from
// comparable machines, so when both carry the host-reference
// microbenchmark and it shifted by more than maxRegress percent, the
// gate downgrades regressions to warnings: the numbers moved because the
// host did. A baseline that predates the reference keeps the old
// hard-fail behavior, with a note saying the comparison is absolute.
func compareBaseline(snap snapshot, baselinePath string, maxRegress float64, stdout io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	warnOnly := false
	switch {
	case base.ReferenceNsPerOp > 0 && snap.ReferenceNsPerOp > 0:
		drift := 100 * (snap.ReferenceNsPerOp - base.ReferenceNsPerOp) / base.ReferenceNsPerOp
		fmt.Fprintf(stdout, "benchjson: host reference %.0f -> %.0f ns/op (%+.1f%%)\n",
			base.ReferenceNsPerOp, snap.ReferenceNsPerOp, drift)
		if drift > maxRegress || drift < -maxRegress {
			warnOnly = true
			fmt.Fprintf(stdout, "benchjson: WARNING: host reference shifted beyond %.0f%%; this machine is not comparable to the baseline's, regressions reported as warnings\n", maxRegress)
		}
	case base.ReferenceNsPerOp <= 0:
		fmt.Fprintf(stdout, "benchjson: baseline %s carries no host reference; comparing absolute throughput\n", baselinePath)
	}
	baseByName := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	var regressions []string
	compared := 0
	for _, r := range snap.Results {
		old, ok := baseByName[r.Name]
		if !ok {
			// Say so explicitly: a benchmark the baseline predates (or a
			// typo'd -run pattern) must be distinguishable from a gated
			// pass when reading the CI log.
			fmt.Fprintf(stdout, "benchjson: %s: not in baseline %s, skipped\n", r.Name, baselinePath)
			continue
		}
		for _, metric := range throughputMetrics {
			was, hadOld := old.Metrics[metric]
			now, hadNew := r.Metrics[metric]
			if !hadOld || !hadNew || was <= 0 {
				continue
			}
			compared++
			change := 100 * (now - was) / was
			fmt.Fprintf(stdout, "benchjson: %s %s: %.0f -> %.0f (%+.1f%%)\n", r.Name, metric, was, now, change)
			if change < -maxRegress {
				regressions = append(regressions,
					fmt.Sprintf("%s %s regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
						r.Name, metric, -change, was, now, maxRegress))
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s shares no throughput metrics with this run; nothing was gated", baselinePath)
	}
	if len(regressions) > 0 {
		if warnOnly {
			fmt.Fprintf(stdout, "benchjson: WARNING: throughput below baseline %s on a shifted host:\n  %s\n",
				baselinePath, strings.Join(regressions, "\n  "))
			return nil
		}
		return fmt.Errorf("throughput regressions vs %s:\n  %s", baselinePath, strings.Join(regressions, "\n  "))
	}
	return nil
}
