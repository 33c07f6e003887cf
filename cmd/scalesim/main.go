// Command scalesim explores the three scalability mechanisms of Section 2
// of the paper on simulated benchmark traces: prediction-driven buffer
// allocation (memory), credit-based flow control (credits) and rendezvous
// elimination (protocol).
//
// Usage:
//
//	scalesim -mode memory   -workload bt -procs 25
//	scalesim -mode credits  -workload is -procs 32
//	scalesim -mode protocol -workload lu -procs 4
//	scalesim -mode memory   -predictor lastvalue
//	scalesim -mode memory   -trace bt25.mpts
//	scalesim -mode memory   -cache-dir ~/.cache/mpipredict -cache-stats
//	scalesim -mode static-sweep
//
// With -predictor, the replayed mechanism forecasts with the named
// prediction strategy instead of the paper's DPD, which quantifies how
// much of each mechanism's win comes from the predictor quality; the
// adaptive "meta" strategy routes among every registered strategy by
// rolling accuracy.
//
// With -trace, the named file (from cmd/tracegen) replaces the simulator
// and the replay runs against its recorded streams. With -cache-dir, the
// simulated trace is persisted under the directory and reused by later
// runs (of scalesim and mpipredict alike — they share the disk layout),
// so repeated replays of the same configuration skip the simulator
// entirely (verify with -cache-stats).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mpipredict/internal/buildinfo"
	"mpipredict/internal/cliutil"
	"mpipredict/internal/core"
	"mpipredict/internal/report"
	"mpipredict/internal/scalability"
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
		fmt.Fprintln(os.Stderr, "scalesim:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("scalesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "memory", "mechanism to evaluate: memory, credits, protocol, static-sweep")
	predictorName := fs.String("predictor", "", fmt.Sprintf("prediction strategy driving the replay (one of %v; default %s)", strategy.Names(), strategy.Default))
	name := fs.String("workload", "bt", "workload name")
	procs := fs.Int("procs", 25, "number of simulated processes")
	iterations := fs.Int("iterations", 0, "iteration override (0 = class A default)")
	seed := fs.Int64("seed", 1, "simulation seed")
	tracePath := fs.String("trace", "", "replay this trace file (.mpts or JSONL) instead of simulating")
	cacheDir := fs.String("cache-dir", "", "persist simulated traces under this directory and reuse them across runs")
	cacheStats := fs.Bool("cache-stats", false, "print trace-cache statistics for this run to stderr")
	versionFlag := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionFlag {
		fmt.Fprintln(stdout, buildinfo.CLIVersion("scalesim"))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *tracePath != "" {
		// A replay evaluates the file's recorded run and touches no cache;
		// silently ignoring simulation/cache knobs would let the user
		// believe they changed it.
		if set := cliutil.SetFlags(fs, "workload", "procs", "iterations", "seed", "cache-dir", "cache-stats"); len(set) > 0 {
			return fmt.Errorf("%v only affect simulation and are ignored with -trace; drop them", set)
		}
	}

	// A fresh Cache per invocation, exactly like mpipredict: its memory
	// tier is empty, so the printed stats describe this run alone, and the
	// disk tier under cacheDir carries entries across runs and processes.
	var cache *tracecache.Cache
	if *cacheDir != "" {
		cache = tracecache.NewDiskStore(*cacheDir)
	}
	if *cacheStats {
		defer func() {
			if cache == nil {
				fmt.Fprintln(stderr, "cache: disabled (no -cache-dir)")
				return
			}
			fmt.Fprintf(stderr, "cache: %s\n", cache.Stats())
		}()
	}

	if *predictorName != "" && !strategy.Known(*predictorName) {
		return fmt.Errorf("unknown -predictor %q (known: %v)", *predictorName, strategy.Names())
	}
	if *mode == "static-sweep" {
		if *tracePath != "" {
			return fmt.Errorf("-trace is ignored by -mode static-sweep; drop it")
		}
		if *predictorName != "" {
			// The sweep is a closed-form computation with no predictor in it.
			return fmt.Errorf("-predictor is ignored by -mode static-sweep; drop it")
		}
		if *cacheDir != "" || *cacheStats {
			// The sweep is a closed-form computation; printing all-zero
			// cache stats would imply a warm cache served it.
			return fmt.Errorf("-cache-dir and -cache-stats are ignored by -mode static-sweep; drop them")
		}
		staticSweep(stdout)
		return nil
	}
	tr, receiver, err := replaySource(*tracePath, *name, *procs, *iterations, *seed, cache)
	if err != nil {
		return err
	}
	return replay(*mode, tr, receiver, *predictorName, stdout)
}

// forecaster builds the message-level forecaster for the named strategy,
// or nil (letting the mechanism configs default to the DPD) when the flag
// was not set.
func forecaster(name string) (*scalability.MessagePredictor, error) {
	if name == "" {
		return nil, nil
	}
	sender, err := strategy.New(name, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	size, err := strategy.New(name, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return scalability.NewMessagePredictor(sender, size), nil
}

// replaySource produces the trace and receiver to replay: loaded from the
// given file when path is non-empty, freshly simulated otherwise (through
// the cache when one is configured). A file is read through the block
// pipeline: one scan picks the receiver, a second gathers only that
// receiver's records, so an -all-receivers export replays without pulling
// every other rank's events into memory.
func replaySource(path, name string, procs, iterations int, seed int64, cache *tracecache.Cache) (*trace.Trace, int, error) {
	if path != "" {
		src, err := stream.OpenFile(path)
		if err != nil {
			return nil, 0, err
		}
		md, _ := stream.MetaOf(src)
		receivers, err := stream.Receivers(src)
		src.Close()
		if err != nil {
			return nil, 0, err
		}
		receiver, err := workloads.PickReplayReceiver(md.App, md.Procs, receivers)
		if err != nil {
			return nil, 0, err
		}
		src, err = stream.OpenFile(path)
		if err != nil {
			return nil, 0, err
		}
		defer src.Close()
		tr, err := stream.Gather(stream.FilterReceiver(src, receiver))
		if err != nil {
			return nil, 0, err
		}
		return tr, receiver, nil
	}
	spec := workloads.Spec{Name: name, Procs: procs, Iterations: iterations}
	rc := workloads.RunConfig{Spec: spec, Net: simnet.DefaultConfig(), Seed: seed}
	var tr *trace.Trace
	var err error
	if cache != nil {
		tr, err = cache.Get(rc)
	} else {
		tr, err = workloads.Run(rc)
	}
	if err != nil {
		return nil, 0, err
	}
	receiver, err := workloads.TypicalReceiver(name, procs)
	if err != nil {
		return nil, 0, err
	}
	return tr, receiver, nil
}

// staticSweep prints the Section 2.1 memory argument: per-process buffer
// memory of the conventional one-buffer-per-peer scheme as the job grows.
func staticSweep(stdout io.Writer) {
	fmt.Fprintln(stdout, "Static per-peer buffer memory (16 KiB per peer), per process:")
	for _, procs := range []int{64, 256, 1024, 4096, 10000, 65536} {
		bytes := scalability.StaticBufferMemory(procs, scalability.DefaultPerPeerBufferBytes)
		fmt.Fprintf(stdout, "%8d processes: %8.1f MiB\n", procs, float64(bytes)/(1<<20))
	}
}

func replay(mode string, tr *trace.Trace, receiver int, predictorName string, stdout io.Writer) error {
	fc, err := forecaster(predictorName)
	if err != nil {
		return err
	}
	switch mode {
	case "memory":
		stats, err := scalability.ReplayBuffers(tr, receiver, scalability.BufferConfig{Forecaster: fc})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Buffers(tr.App, tr.Procs, stats))
	case "credits":
		stats, err := scalability.ReplayCredits(tr, receiver, 0, scalability.CreditConfig{Forecaster: fc})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Credits(tr.App, tr.Procs, stats))
	case "protocol":
		stats, err := scalability.ReplayProtocol(tr, receiver, scalability.ProtocolConfig{Forecaster: fc})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Protocol(tr.App, tr.Procs, stats))
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}
