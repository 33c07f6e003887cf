// Command tracegen simulates one benchmark — or generates a synthetic
// periodic stream — and exports its dual-level message trace (logical and
// physical receive streams) as JSON lines or in the columnar trace store
// format (.mpts) that cmd/mpipredict and cmd/scalesim can replay.
//
// Usage:
//
//	tracegen -workload bt -procs 9 -out bt9.jsonl
//	tracegen -workload bt -procs 9 -o bt9.mpts
//	tracegen -workload is -procs 32 -iterations 11 -all-receivers -o is32.mpts
//	tracegen -workload lu -procs 16 -stream -o lu16.mpts
//	tracegen -events 100000000 -period 18 -swap 0.05 -stream -o big.mpts
//
// With -stream, the export runs through the block pipeline
// (internal/stream) straight into the streaming store writer: events
// leave the producer as they are generated and the trace is never
// materialized, so -events can generate traces far larger than RAM in
// constant memory. The streamed file is byte-identical to the in-memory
// path's.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mpipredict/internal/buildinfo"
	"mpipredict/internal/cliutil"
	"mpipredict/internal/simnet"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: it parses args, simulates or
// generates and writes the requested outputs to the given streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "bt", "workload name (bt, cg, lu, is, sweep3d)")
	procs := fs.Int("procs", 4, "number of simulated processes")
	iterations := fs.Int("iterations", 0, "iteration override (0 = class A default)")
	seed := fs.Int64("seed", 1, "simulation seed")
	out := fs.String("out", "", "JSONL output file (default: stdout)")
	binOut := fs.String("o", "", "columnar trace store output file (.mpts); may be combined with -out")
	allReceivers := fs.Bool("all-receivers", false, "record the streams of every rank instead of only the typical receiver")
	noiseless := fs.Bool("noiseless", false, "disable network jitter and load imbalance")
	events := fs.Int("events", 0, "generate a synthetic periodic stream with this many events per level instead of simulating a workload")
	period := fs.Int("period", 18, "with -events: length of the repeating (sender, size) pattern")
	swap := fs.Float64("swap", 0, "with -events: per-position probability that adjacent physical arrivals swap")
	streamMode := fs.Bool("stream", false, "export through the streaming block pipeline: constant memory, byte-identical output")
	list := fs.Bool("list", false, "list the available workloads and exit")
	versionFlag := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionFlag {
		fmt.Fprintln(stdout, buildinfo.CLIVersion("tracegen"))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *list {
		for _, info := range workloads.Catalog() {
			fmt.Fprintf(stdout, "%-8s procs=%v iterations=%d  %s\n", info.Name, info.PaperProcs, info.DefaultIterations, info.Description)
		}
		return nil
	}

	if *events > 0 {
		// Synthetic mode replaces the simulator; silently ignoring the
		// simulation knobs would let the user believe they took effect.
		if set := cliutil.SetFlags(fs, "workload", "procs", "iterations", "noiseless", "all-receivers"); len(set) > 0 {
			return fmt.Errorf("%v only affect workload simulation and are ignored with -events; drop them", set)
		}
		if *period < 1 {
			return fmt.Errorf("-period must be at least 1")
		}
		if *swap < 0 || *swap >= 1 {
			return fmt.Errorf("-swap must be in [0, 1)")
		}
		return runSynthetic(synthConfig(*events, *period, *swap, *seed), *streamMode, *binOut, *out, stdout)
	}
	if set := cliutil.SetFlags(fs, "period", "swap"); len(set) > 0 {
		return fmt.Errorf("%v only affect synthetic generation; add -events or drop them", set)
	}

	net := simnet.DefaultConfig()
	if *noiseless {
		net = simnet.NoiselessConfig()
	}
	rc := workloads.RunConfig{
		Spec:              workloads.Spec{Name: *name, Procs: *procs, Iterations: *iterations},
		Net:               net,
		Seed:              *seed,
		TraceAllReceivers: *allReceivers,
	}
	if *streamMode {
		return streamExport(func(sink stream.Sink) error { return workloads.RunToSink(rc, sink) },
			*name, *procs, *binOut, *out, stdout)
	}
	tr, err := workloads.Run(rc)
	if err != nil {
		return err
	}
	return writeTrace(tr, *binOut, *out, stdout)
}

// synthConfig builds the canonical synthetic configuration of -events: a
// single receiver fed a period-long rotation of senders 1..period with
// sizes proportional to the sender.
func synthConfig(events, period int, swap float64, seed int64) trace.SynthConfig {
	pattern := make([]trace.SynthMessage, period)
	for i := range pattern {
		pattern[i] = trace.SynthMessage{Sender: i + 1, Size: int64(64 * (i + 1))}
	}
	return trace.SynthConfig{
		App:             "synth",
		Procs:           period + 1,
		Receiver:        0,
		Pattern:         pattern,
		Events:          events,
		SwapProbability: swap,
		Seed:            seed,
	}
}

// runSynthetic exports the synthetic trace: through the block pipeline
// with -stream (constant memory), through trace.Synthesize otherwise (the
// in-memory reference path the byte-identity tests compare against).
func runSynthetic(cfg trace.SynthConfig, streamMode bool, binOut, jsonlOut string, stdout io.Writer) error {
	if streamMode {
		return streamExport(func(sink stream.Sink) error {
			_, err := stream.Copy(sink, stream.SynthSource(cfg))
			return err
		}, cfg.App, cfg.Procs, binOut, jsonlOut, stdout)
	}
	return writeTrace(trace.Synthesize(cfg), binOut, jsonlOut, stdout)
}

// writeTrace is the in-memory export path shared by both modes.
func writeTrace(tr *trace.Trace, binOut, jsonlOut string, stdout io.Writer) error {
	if binOut != "" {
		if err := tracestore.SaveTrace(binOut, tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d records (%d ranks traced) to %s (store v%d)\n",
			tr.Len(), len(tr.Receivers()), binOut, tracestore.StoreVersion)
	}
	switch {
	case jsonlOut != "":
		if err := trace.SaveFile(jsonlOut, tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d records (%d ranks traced) to %s\n", tr.Len(), len(tr.Receivers()), jsonlOut)
	case binOut == "":
		if err := trace.WriteJSONL(stdout, tr); err != nil {
			return err
		}
	}
	return nil
}

// countingSink tracks how many records and distinct receivers passed
// through, for the summary line of the streaming path.
type countingSink struct {
	sink      stream.Sink
	records   int64
	receivers map[int]bool
}

func (c *countingSink) Write(b *stream.EventBlock) error {
	c.records += int64(b.Len())
	for _, r := range b.Receiver {
		c.receivers[r] = true
	}
	return c.sink.Write(b)
}

// streamExport drives a producer once, fanning the blocks into the
// selected streaming writers. The store file is written atomically (temp
// + rename) exactly like the in-memory path, so a failure partway never
// leaves a truncated .mpts behind.
func streamExport(produce func(stream.Sink) error, app string, procs int, binOut, jsonlOut string, stdout io.Writer) error {
	var sinks []stream.Sink
	var finish []func() error
	var abort []func() // close leftover handles when the export fails

	if binOut != "" {
		dir := filepath.Dir(binOut)
		f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(binOut)+"-*")
		if err != nil {
			return fmt.Errorf("tracegen: creating temp file in %s: %w", dir, err)
		}
		tmp := f.Name()
		defer os.Remove(tmp) // no-op after the rename succeeds
		w, err := tracestore.NewWriter(f, app, procs)
		if err != nil {
			f.Close()
			return err
		}
		abort = append(abort, func() { f.Close() })
		sinks = append(sinks, stream.SinkTo(w))
		finish = append(finish, func() error {
			if err := w.Close(); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			return os.Rename(tmp, binOut)
		})
	}
	jsonlTo := io.Writer(nil)
	var jsonlFile *os.File
	switch {
	case jsonlOut != "":
		f, err := os.Create(jsonlOut)
		if err != nil {
			for _, fn := range abort {
				fn()
			}
			return fmt.Errorf("tracegen: creating %s: %w", jsonlOut, err)
		}
		jsonlFile = f
		jsonlTo = f
		abort = append(abort, func() { f.Close() })
	case binOut == "":
		jsonlTo = stdout
	}
	if jsonlTo != nil {
		w, err := trace.NewJSONLWriter(jsonlTo, app, procs)
		if err != nil {
			return err
		}
		sinks = append(sinks, stream.SinkTo(w))
		finish = append(finish, func() error {
			if err := w.Close(); err != nil {
				return err
			}
			if jsonlFile != nil {
				return jsonlFile.Close()
			}
			return nil
		})
	}

	counter := &countingSink{sink: stream.Tee(sinks...), receivers: make(map[int]bool)}
	if err := produce(counter); err != nil {
		for _, fn := range abort {
			fn()
		}
		return err
	}
	// Run every finish callback even if an earlier one fails, so one
	// output's error never leaves another output unflushed on disk.
	var finishErr error
	for _, fn := range finish {
		if err := fn(); err != nil && finishErr == nil {
			finishErr = err
		}
	}
	if finishErr != nil {
		return finishErr
	}
	if binOut != "" {
		fmt.Fprintf(stdout, "wrote %d records (%d ranks traced) to %s (store v%d, streamed)\n",
			counter.records, len(counter.receivers), binOut, tracestore.StoreVersion)
	}
	if jsonlOut != "" {
		fmt.Fprintf(stdout, "wrote %d records (%d ranks traced) to %s (streamed)\n",
			counter.records, len(counter.receivers), jsonlOut)
	}
	return nil
}
