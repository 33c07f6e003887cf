// Command mpipredict regenerates the tables and figures of the paper
// "Exploring the Predictability of MPI Messages" from the simulated
// benchmarks, or replays a previously exported trace through the same
// prediction and evaluation pipeline.
//
// Usage:
//
//	mpipredict -experiment all
//	mpipredict -experiment table1
//	mpipredict -experiment figure3 -seed 7 -parallel 8
//	mpipredict -experiment figure3 -predictor markov1
//	mpipredict -experiment figure4 -predictor meta
//	mpipredict -experiment compare
//	mpipredict -experiment figure1 -iterations 40 -noiseless
//	mpipredict -experiment table1 -cache-dir ~/.cache/mpipredict -cache-stats
//	mpipredict -trace bt9.mpts -experiment table1
//	mpipredict -trace big.mpts -experiment scan -scan top-senders -topk 5
//	mpipredict -trace big.mpts -experiment scan -scan windows -windows 12 -format csv
//	mpipredict -trace big.mpts -experiment scan -scan phases -parallel 8
//
// Experiments: table1, figure1, figure2, figure3, figure4, compare, scan, all.
//
// With -predictor, the accuracy experiments (figure3, figure4, and the
// figure replays) evaluate the named prediction strategy instead of the
// paper's DPD; "compare" runs every registered strategy side by side on
// one representative workload per benchmark. The adaptive "meta"
// strategy wraps every other registered strategy and routes each
// prediction to whichever currently scores best on the stream. With -trace, the named file
// (a .mpts store or JSONL, from cmd/tracegen) replaces the simulator:
// table1 characterises the traced receiver and figure3/figure4 evaluate
// prediction accuracy on its recorded streams. With -cache-dir, simulated
// traces are persisted under the directory as .mpts stores and reused by
// later runs; a warm directory serves a full experiment grid with zero
// simulator invocations (verify with -cache-stats).
//
// The "scan" experiment answers workload-analysis queries directly from a
// columnar .mpts file (cmd/tracegen -o file.mpts) without materializing
// the trace: top-K senders (-scan top-senders), per-window traffic
// statistics (-scan windows), or communication-phase boundaries
// (-scan phases), evaluated by a parallel partition scan with footer-level
// pruning and column projection. It requires -trace pointing at a .mpts
// file; -parallel bounds the scan workers and -format selects table or
// csv output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mpipredict/internal/buildinfo"
	"mpipredict/internal/cliutil"
	"mpipredict/internal/evalx"
	"mpipredict/internal/report"
	"mpipredict/internal/simnet"
	"mpipredict/internal/strategy"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracecache"
	"mpipredict/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "mpipredict:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mpipredict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "experiment to run: table1, figure1, figure2, figure3, figure4, compare, scan, all")
	predictorName := fs.String("predictor", "", fmt.Sprintf("prediction strategy for the accuracy experiments (one of %v; default %s)", strategy.Names(), strategy.Default))
	seed := fs.Int64("seed", 1, "simulation seed")
	iterations := fs.Int("iterations", 0, "override the per-workload iteration count (0 = class A defaults)")
	noiseless := fs.Bool("noiseless", false, "disable network jitter and load imbalance")
	parallel := fs.Int("parallel", 0, "max experiments evaluated concurrently (0 = GOMAXPROCS); results are identical for every setting")
	nocache := fs.Bool("nocache", false, "re-simulate every workload instead of sharing traces between experiments")
	tracePath := fs.String("trace", "", "replay this trace file (.mpts or JSONL) instead of simulating")
	format := fs.String("format", "table", "output format for -experiment compare and scan: table or csv")
	cacheDir := fs.String("cache-dir", "", "persist simulated traces under this directory and reuse them across runs")
	cacheStats := fs.Bool("cache-stats", false, "print trace-cache statistics for this run to stderr")
	scanQuery := fs.String("scan", "top-senders", "query for -experiment scan: top-senders, windows, or phases")
	topK := fs.Int("topk", 10, "with -scan top-senders: number of senders to rank")
	windows := fs.Int("windows", 8, "with -scan windows or phases: number of equal time windows")
	levelName := fs.String("level", "logical", "with -experiment scan: stream to analyse, logical or physical")
	versionFlag := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionFlag {
		fmt.Fprintln(stdout, buildinfo.CLIVersion("mpipredict"))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *nocache && *cacheDir != "" {
		return fmt.Errorf("-nocache and -cache-dir are mutually exclusive")
	}
	if *predictorName != "" {
		if !strategy.Known(*predictorName) {
			return fmt.Errorf("unknown -predictor %q (known: %v)", *predictorName, strategy.Names())
		}
		// Silently ignoring the flag would let the user believe it took
		// effect: table1/figure1/figure2 characterise streams without
		// running a predictor, and compare runs every strategy itself.
		switch *experiment {
		case "table1", "figure1", "figure2", "scan":
			return fmt.Errorf("-predictor has no effect on -experiment %s (only the accuracy experiments figure3, figure4 and all evaluate a predictor); drop it", *experiment)
		case "compare":
			return fmt.Errorf("-predictor has no effect on -experiment compare (it runs every registered strategy); drop it")
		}
	}
	if *experiment != "scan" {
		// The scan knobs shape only the store queries; anywhere else they
		// would be silently inert.
		if set := cliutil.SetFlags(fs, "scan", "topk", "windows", "level"); len(set) > 0 {
			return fmt.Errorf("%v only affect -experiment scan; drop them", set)
		}
	} else if *tracePath == "" {
		return fmt.Errorf("-experiment scan analyses a columnar store file; point -trace at a .mpts file (export one with tracegen -o file.mpts)")
	}
	if *tracePath != "" {
		// A replay evaluates the file's recorded run and touches no cache;
		// silently ignoring simulation/cache knobs would let the user
		// believe they took effect. The scan experiment keeps -parallel: it
		// bounds the store scan workers.
		reject := []string{"seed", "iterations", "noiseless", "parallel", "nocache", "cache-dir", "cache-stats"}
		if *experiment == "scan" {
			reject = []string{"seed", "iterations", "noiseless", "nocache", "cache-dir", "cache-stats"}
		}
		if set := cliutil.SetFlags(fs, reject...); len(set) > 0 {
			return fmt.Errorf("%v only affect simulation and are ignored with -trace; drop them", set)
		}
	}
	switch *format {
	case "table", "csv":
	default:
		return fmt.Errorf("unknown -format %q (want table or csv)", *format)
	}
	if len(cliutil.SetFlags(fs, "format")) > 0 && *experiment != "compare" && *experiment != "scan" {
		// Only the comparison grid and the scan queries have a
		// machine-readable rendering; the figures and tables are
		// fixed-layout paper reproductions.
		return fmt.Errorf("-format only affects -experiment compare and scan; drop it")
	}

	opts := evalx.Options{Seed: *seed, Iterations: *iterations, Net: simnet.DefaultConfig(), Parallelism: *parallel, NoCache: *nocache, Strategy: *predictorName}
	if *noiseless {
		opts.Net = simnet.NoiselessConfig()
	}
	if *cacheDir != "" {
		// A fresh Cache per invocation: its memory tier is empty, so the
		// printed stats describe exactly this run, and the disk tier under
		// cacheDir carries entries across runs and processes.
		opts.Cache = tracecache.NewDiskStore(*cacheDir)
	}
	if *cacheStats {
		cache := opts.Cache
		if cache == nil && !opts.NoCache {
			cache = tracecache.Shared
		}
		before := cacheStatsSnapshot(cache)
		defer func() { printCacheStats(stderr, cache, before) }()
	}

	if *experiment == "scan" {
		level, err := trace.ParseLevel(*levelName)
		if err != nil {
			return err
		}
		q := scanConfig{query: *scanQuery, topK: *topK, windows: *windows, level: level, workers: *parallel, format: *format}
		return runScan(*tracePath, q, stdout, stderr)
	}
	if *tracePath != "" {
		return runReplay(*tracePath, *experiment, opts, stdout)
	}
	return runExperiments(*experiment, *format, opts, stdout)
}

func cacheStatsSnapshot(c *tracecache.Cache) tracecache.Stats {
	if c == nil {
		return tracecache.Stats{}
	}
	return c.Stats()
}

// printCacheStats reports the cache activity of this run: the delta
// against the snapshot taken before it, so a long-lived shared cache does
// not smear earlier runs into the numbers.
func printCacheStats(w io.Writer, c *tracecache.Cache, before tracecache.Stats) {
	if c == nil {
		fmt.Fprintln(w, "cache: disabled (-nocache)")
		return
	}
	fmt.Fprintf(w, "cache: %s\n", c.Stats().Delta(before))
}

// runReplay feeds a trace file through the evaluation pipeline as a
// block stream: the file is scanned once for its traced receivers, then
// streamed through the scorers — it is never materialized in memory, so
// replays handle traces far larger than RAM. Only the trace-shaped
// experiments make sense here: table1 (characterisation of the traced
// receiver) and figure3/figure4 (prediction accuracy on the recorded
// streams); "all" runs all of them.
func runReplay(path, experiment string, opts evalx.Options, stdout io.Writer) error {
	src, err := stream.OpenFile(path)
	if err != nil {
		return err
	}
	md, _ := stream.MetaOf(src)
	receivers, err := stream.Receivers(src)
	src.Close()
	if err != nil {
		return err
	}
	receiver, err := workloads.PickReplayReceiver(md.App, md.Procs, receivers)
	if err != nil {
		return err
	}
	open := stream.FileOpener(path)

	wantTable1 := experiment == "table1" || experiment == "all"
	wantLogical := experiment == "figure3" || experiment == "all"
	wantPhysical := experiment == "figure4" || experiment == "all"
	if !wantTable1 && !wantLogical && !wantPhysical {
		return fmt.Errorf("experiment %q cannot replay a trace (supported with -trace: table1, figure3, figure4, all)", experiment)
	}

	if wantTable1 {
		row, err := evalx.Table1RowFromSource(open, receiver)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Table1([]evalx.Table1Row{row}))
	}
	if wantLogical || wantPhysical {
		res, err := evalx.EvaluateSource(open, receiver, opts)
		if err != nil {
			return err
		}
		logical, physical := evalx.FiguresFromResults(opts, []evalx.Result{res})
		if wantLogical {
			fmt.Fprintln(stdout, report.AccuracyFigure(logical))
		}
		if wantPhysical {
			fmt.Fprintln(stdout, report.AccuracyFigure(physical))
		}
	}
	return nil
}

func runExperiments(experiment, format string, opts evalx.Options, stdout io.Writer) error {
	switch experiment {
	case "table1":
		return runTable1(opts, stdout)
	case "figure1":
		return runFigure1(opts, stdout)
	case "figure2":
		return runFigure2(opts, stdout)
	case "figure3":
		return runFigures(opts, stdout, true, false)
	case "figure4":
		return runFigures(opts, stdout, false, true)
	case "compare":
		return runCompare(opts, format, stdout)
	case "all":
		if err := runTable1(opts, stdout); err != nil {
			return err
		}
		if err := runFigure1(opts, stdout); err != nil {
			return err
		}
		if err := runFigure2(opts, stdout); err != nil {
			return err
		}
		return runFigures(opts, stdout, true, true)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

// runCompare sets the DPD against every registered baseline strategy on
// one representative spec per benchmark, rendered as the human-readable
// table or as long-form CSV for analysis pipelines.
func runCompare(opts evalx.Options, format string, stdout io.Writer) error {
	cmp, err := evalx.CompareStrategies(nil, nil, opts)
	if err != nil {
		return err
	}
	if format == "csv" {
		fmt.Fprint(stdout, report.StrategyComparisonCSV(cmp))
		return nil
	}
	fmt.Fprintln(stdout, report.StrategyComparison(cmp))
	return nil
}

func runTable1(opts evalx.Options, stdout io.Writer) error {
	rows, err := evalx.Table1(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, report.Table1(rows))
	return nil
}

func runFigure1(opts evalx.Options, stdout io.Writer) error {
	fig, err := evalx.Figure1(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, report.Figure1(fig))
	return nil
}

func runFigure2(opts evalx.Options, stdout io.Writer) error {
	fig, err := evalx.Figure2(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, report.Figure2(fig, 36))
	return nil
}

func runFigures(opts evalx.Options, stdout io.Writer, wantLogical, wantPhysical bool) error {
	results, err := evalx.SweepAll(opts)
	if err != nil {
		return err
	}
	logical, physical := evalx.FiguresFromResults(opts, results)
	if wantLogical {
		fmt.Fprintln(stdout, report.AccuracyFigure(logical))
	}
	if wantPhysical {
		fmt.Fprintln(stdout, report.AccuracyFigure(physical))
	}
	return nil
}
