// Command mpipredictd is the online prediction daemon: it hosts prediction
// sessions behind the HTTP/JSON API of internal/serve, checkpoints learned
// predictor state to a snapshot file on SIGTERM (and optionally on an
// interval), and warm-restarts from that snapshot so a restart does not
// forget the periodicity it learned from live traffic.
//
// Usage:
//
//	mpipredictd -addr 127.0.0.1:8600 -snapshot state.mps
//	mpipredictd -addr 127.0.0.1:8600 -snapshot state.mps -snapshot-interval 5m
//	mpipredictd -addr 127.0.0.1:8600 -predictor markov1           # default strategy for new sessions
//	mpipredictd -addr 127.0.0.1:8600 -predictor meta              # adaptive routing among all strategies
//	mpipredictd -replay testdata/corpus/bt.4.mpts                 # serve and self-load
//	mpipredictd -replay testdata/corpus/bt.4.mpts -target http://127.0.0.1:8600
//	mpipredictd -addr 127.0.0.1:8600 -listen-wire 127.0.0.1:8601  # also serve the binary wire protocol
//	mpipredictd -loadgen 1000000 -target http://127.0.0.1:8600    # drive 1M synthetic events, report events/sec
//
// Each session runs one prediction strategy (internal/strategy), chosen
// by the observe request's "predictor" field at session creation and
// defaulting to -predictor (the DPD when unset). Snapshots persist the
// strategy alongside the state, so a restart restores a heterogeneous
// session mix exactly. Sessions running the adaptive "meta" strategy
// additionally report router telemetry — current leaders, switch counts
// and per-expert rolling hit rates — per session on /v1/sessions and
// aggregated under the "meta" key on /debug/vars.
//
// With -target, the daemon acts as a replay client instead: it feeds the
// trace through the target daemon's observe API (load generation /
// corpus ingestion) and exits. Without -target but with -replay, it
// starts serving, replays the trace into itself over loopback, and
// keeps serving.
//
// -listen-wire adds the binary wire protocol (internal/wire) beside the
// HTTP listener, sharing the same registry, readiness gates and
// admission limits; the address is advertised on /healthz so replay
// clients auto-negotiate it. -transport pins a replay or loadgen client
// to "http" or "wire" ("auto", the default, probes and falls back).
// -loadgen with -target switches to load-generator mode: it drives the
// given number of synthetic events at the target across
// -loadgen-conns connections and -loadgen-sessions sessions, reports
// the achieved events/sec, and exits.
//
// The API is documented in the README; briefly: POST /v1/observe ingests
// batched (sender, size) events for a (tenant, stream) session,
// GET /v1/predict?tenant=&stream=&k= forecasts the next k messages,
// GET /v1/sessions lists live sessions, /healthz and /debug/vars expose
// liveness and expvar-style metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"mpipredict/internal/buildinfo"
	"mpipredict/internal/cliutil"
	"mpipredict/internal/faultinject"
	"mpipredict/internal/serve"
	"mpipredict/internal/strategy"
	"mpipredict/internal/stream"
	"mpipredict/internal/tracecache"
)

// onListen, when non-nil, is invoked with the bound address once the
// daemon is accepting connections. Tests use it to discover -addr :0
// ports; production leaves it nil.
var onListen func(addr string)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sigs); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "mpipredictd:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command. It returns when the daemon is
// shut down by a signal on sigs, or immediately after a client-mode
// replay.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) error {
	fset := flag.NewFlagSet("mpipredictd", flag.ContinueOnError)
	fset.SetOutput(stderr)
	addr := fset.String("addr", "127.0.0.1:8600", "listen address (host:port; port 0 picks a free port)")
	snapshotPath := fset.String("snapshot", "", "predictor state snapshot file: loaded at startup when present, written on shutdown")
	snapshotEvery := fset.Duration("snapshot-interval", 0, "also checkpoint every interval (0 = only on shutdown)")
	shards := fset.Int("shards", 64, "session registry shards")
	predictorName := fset.String("predictor", "", fmt.Sprintf("default prediction strategy for new sessions (one of %v; default %s); observe requests may override per session", strategy.Names(), strategy.Default))
	maxSessions := fset.Int("max-sessions", 65536, "max live sessions before LRU eviction")
	idleTTL := fset.Duration("idle-ttl", serve.DefaultIdleTTL, "evict sessions idle this long (negative disables)")
	sweepEvery := fset.Duration("sweep-interval", time.Minute, "how often to sweep idle sessions")
	listenWire := fset.String("listen-wire", "", "also serve the binary wire protocol on this address (host:port; advertised on /healthz for auto-negotiation)")
	replayPath := fset.String("replay", "", "feed this trace file (.mpts or JSONL) through the observe API")
	target := fset.String("target", "", "with -replay or -loadgen: send to this daemon URL (or wire://host:port) and exit instead of serving")
	batch := fset.Int("replay-batch", 64, "events per observe request during replay")
	transport := fset.String("transport", "", "replay/loadgen transport: auto (probe /healthz and prefer wire; default), http, or wire")
	loadgen := fset.Int64("loadgen", 0, "with -target: drive this many synthetic events at the target, report events/sec, and exit")
	loadgenSessions := fset.Int("loadgen-sessions", 64, "with -loadgen: distinct sessions driven")
	loadgenConns := fset.Int("loadgen-conns", 1, "with -loadgen: parallel connections")
	loadgenPredictor := fset.String("loadgen-predictor", "", "with -loadgen: strategy for generated sessions (default markov1, cheap enough to measure the protocol; use dpd to measure model-bound ingest)")
	loadgenTenant := fset.String("loadgen-tenant", "", "with -loadgen: tenant for generated sessions (default loadgen; repeated runs against one daemon need distinct tenants, or their sequenced batches dedup as duplicates)")
	drainTimeout := fset.Duration("drain-timeout", 10*time.Second, "how long a shutdown waits for in-flight requests before cutting them off")
	chaosSpec := fset.String("chaos", "", "TESTING ONLY: inject faults into every served request, e.g. err=0.05,reset=0.05,latency=0.2:2ms,seed=42")
	versionFlag := fset.Bool("version", false, "print version and exit")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *versionFlag {
		fmt.Fprintln(stdout, buildinfo.CLIVersion("mpipredictd"))
		return nil
	}
	if fset.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fset.Args())
	}
	if *loadgen < 0 {
		return fmt.Errorf("-loadgen must be positive")
	}
	if *loadgen > 0 && *replayPath != "" {
		return fmt.Errorf("-loadgen and -replay are both client workloads; pick one")
	}
	if *loadgen > 0 && *target == "" {
		return fmt.Errorf("-loadgen requires -target (it measures a running daemon, not itself)")
	}
	if *replayPath == "" {
		if *target != "" && *loadgen == 0 {
			return fmt.Errorf("-target requires -replay or -loadgen")
		}
		if set := cliutil.SetFlags(fset, "replay-batch"); len(set) > 0 {
			return fmt.Errorf("%v has no effect without -replay; drop it", set)
		}
	}
	if *loadgen == 0 {
		if set := cliutil.SetFlags(fset, "loadgen-sessions", "loadgen-conns", "loadgen-predictor", "loadgen-tenant"); len(set) > 0 {
			return fmt.Errorf("%v have no effect without -loadgen; drop them", set)
		}
	}
	if *replayPath == "" && *loadgen == 0 {
		if set := cliutil.SetFlags(fset, "transport"); len(set) > 0 {
			return fmt.Errorf("%v only affects replay and loadgen clients; drop it", set)
		}
	}
	switch *transport {
	case "", serve.TransportAuto, serve.TransportHTTP, serve.TransportWire:
	default:
		return fmt.Errorf("unknown -transport %q (want %s, %s or %s)", *transport, serve.TransportAuto, serve.TransportHTTP, serve.TransportWire)
	}
	if *target != "" {
		// Client mode runs no server; silently ignoring server knobs would
		// let the user believe they took effect.
		if set := cliutil.SetFlags(fset, "addr", "snapshot", "snapshot-interval", "shards", "predictor", "max-sessions", "idle-ttl", "sweep-interval", "drain-timeout", "chaos", "listen-wire"); len(set) > 0 {
			return fmt.Errorf("%v only affect the server and are ignored with -target; drop them", set)
		}
	}
	if *loadgenPredictor != "" && !strategy.Known(*loadgenPredictor) {
		return fmt.Errorf("unknown -loadgen-predictor %q (known: %v)", *loadgenPredictor, strategy.Names())
	}
	var chaos faultinject.Config
	if *chaosSpec != "" {
		var err error
		if chaos, err = faultinject.ParseSpec(*chaosSpec); err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
	}
	if *drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive")
	}
	if *predictorName != "" && !strategy.Known(*predictorName) {
		return fmt.Errorf("unknown -predictor %q (known: %v)", *predictorName, strategy.Names())
	}
	if *snapshotEvery < 0 {
		return fmt.Errorf("-snapshot-interval must not be negative")
	}
	if *sweepEvery <= 0 {
		return fmt.Errorf("-sweep-interval must be positive")
	}

	if *replayPath != "" {
		// Validate the whole file up front — header, framing and, for
		// binary traces, the CRC trailer — in one constant-memory pass,
		// so a corrupt replay file fails before the daemon binds its port
		// (the fail-before-listen behavior the materializing loader had).
		// The replay itself re-streams the file block by block.
		if err := validateTraceFile(*replayPath); err != nil {
			return err
		}
	}
	// The daemon's clients negotiate by default; "" here means auto, while
	// library callers of ReplayOptions keep the probe-free HTTP default.
	clientTransport := *transport
	if clientTransport == "" {
		clientTransport = serve.TransportAuto
	}
	if *loadgen > 0 {
		stats, err := serve.LoadGen(context.Background(), *target, serve.LoadGenOptions{
			Events:    *loadgen,
			Tenant:    *loadgenTenant,
			Sessions:  *loadgenSessions,
			Conns:     *loadgenConns,
			Predictor: *loadgenPredictor,
			Transport: clientTransport,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mpipredictd: %s\n", stats)
		return nil
	}
	if *target != "" {
		return runReplayClient(context.Background(), *target, *replayPath, *batch, clientTransport, stdout)
	}

	reg := serve.NewRegistry(serve.Config{
		Shards:      *shards,
		MaxSessions: *maxSessions,
		IdleTTL:     *idleTTL,
		Strategy:    *predictorName,
	})
	srv := serve.NewServer(reg)
	// Surface the shared trace cache (hit/miss, coalescing and disk-tier
	// counters) on /debug/vars: any simulation the daemon process runs
	// goes through it, and an idle all-zero gauge is itself informative.
	srv.PublishVar("tracecache", func() interface{} { return tracecache.Shared.Stats() })
	// /readyz fails until the snapshot restore below completes, so a load
	// balancer never routes to a half-restored instance (the listener
	// binds after the restore today, but readiness states the contract
	// rather than relying on that ordering).
	srv.SetReady(false)
	if *snapshotPath != "" {
		sessions, err := serve.LoadSnapshotFile(*snapshotPath)
		switch {
		case err == nil:
			if err := reg.RestoreSessions(sessions); err != nil {
				return fmt.Errorf("restoring snapshot %s: %w", *snapshotPath, err)
			}
			// Report what actually survived: a registry reconfigured with a
			// smaller capacity evicts part of a larger snapshot.
			live := reg.Len()
			fmt.Fprintf(stdout, "mpipredictd: warm start, restored %d sessions from %s\n", live, *snapshotPath)
			if live < len(sessions) {
				fmt.Fprintf(stderr, "mpipredictd: warning: snapshot held %d sessions but only %d fit -max-sessions %d; the least recently restored were dropped\n",
					len(sessions), live, *maxSessions)
			}
		case errors.Is(err, fs.ErrNotExist):
			fmt.Fprintf(stdout, "mpipredictd: cold start, no snapshot at %s yet\n", *snapshotPath)
		default:
			// A corrupt snapshot is an operator decision, not something to
			// silently discard: refuse to start until it is moved away.
			return err
		}
	}

	srv.SetReady(true)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Fprintf(stdout, "mpipredictd: listening on http://%s\n", bound)
	if onListen != nil {
		onListen(bound)
	}

	// The optional binary wire listener binds before the HTTP server
	// starts answering /healthz, so a probe never sees a half-advertised
	// daemon. Serve() itself publishes the address for advertisement.
	var wireSrv *serve.WireServer
	wireErr := make(chan error, 1)
	if *listenWire != "" {
		wln, err := net.Listen("tcp", *listenWire)
		if err != nil {
			ln.Close()
			return err
		}
		if chaos.Enabled() {
			wln = faultinject.NewListener(chaos, wln)
		}
		fmt.Fprintf(stdout, "mpipredictd: wire protocol on %s\n", wln.Addr())
		wireSrv = serve.NewWireServer(srv)
		// Advertise before serving: a /healthz probe (the -replay
		// self-replay's transport negotiation among them) can run before
		// the Serve goroutine is scheduled.
		srv.SetWireAddr(wln.Addr().String())
		go func() { wireErr <- wireSrv.Serve(wln) }()
	}

	var handler http.Handler = srv
	if chaos.Enabled() {
		fmt.Fprintf(stderr, "mpipredictd: CHAOS MODE: injecting faults into every request (%s)\n", *chaosSpec)
		handler = faultinject.Middleware(chaos, handler)
	}
	// The server-side halves of the resilience story: header/body read
	// deadlines so a stalled client cannot pin a connection, a write
	// deadline so a stalled reader cannot, and an idle timeout to reap
	// abandoned keep-alives. The per-request work deadline lives inside
	// serve.Server.
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if *replayPath != "" {
		stats, err := replayFile(context.Background(), "http://"+bound, *replayPath, *batch, clientTransport)
		if err != nil {
			httpSrv.Close()
			return err
		}
		fmt.Fprintf(stdout, "mpipredictd: replay %s\n", stats)
	}

	// Checkpointing retries transient failures (full disk, NFS hiccup)
	// with a short backoff; both outcomes are visible on /debug/vars so an
	// operator can alert on silently failing checkpoints long before a
	// crash would lose state.
	var checkpointFailures, checkpointRetries atomic.Int64
	srv.PublishVar("checkpoint_failures", func() interface{} { return checkpointFailures.Load() })
	srv.PublishVar("checkpoint_retries", func() interface{} { return checkpointRetries.Load() })
	checkpoint := func() error {
		if *snapshotPath == "" {
			return nil
		}
		sessions := reg.SnapshotSessions()
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if attempt > 0 {
				checkpointRetries.Add(1)
				time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
			}
			if err = serve.SaveSnapshotFile(*snapshotPath, sessions); err == nil {
				fmt.Fprintf(stdout, "mpipredictd: checkpointed %d sessions to %s\n", len(sessions), *snapshotPath)
				return nil
			}
		}
		checkpointFailures.Add(1)
		return err
	}

	sweep := time.NewTicker(*sweepEvery)
	defer sweep.Stop()
	var snapTick <-chan time.Time
	if *snapshotEvery > 0 && *snapshotPath != "" {
		ticker := time.NewTicker(*snapshotEvery)
		defer ticker.Stop()
		snapTick = ticker.C
	}

	for {
		select {
		case sig := <-sigs:
			// Graceful drain: fail /readyz first so load balancers stop
			// routing, then stop accepting and wait for in-flight requests,
			// then write the final checkpoint from the now-quiescent
			// registry. Requests still running at -drain-timeout are cut
			// off; their clients retry against the next instance.
			fmt.Fprintf(stdout, "mpipredictd: %v, draining\n", sig)
			srv.SetDraining()
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			// The wire listener drains first (its clients fall back to HTTP
			// or retry elsewhere); connections idling past the deadline are
			// cut off, like HTTP's Shutdown-then-Close. Both drains finish
			// before the checkpoint reads the then-quiescent registry.
			if wireSrv != nil {
				wireDone := make(chan struct{})
				go func() { wireSrv.Shutdown(); close(wireDone) }()
				select {
				case <-wireDone:
				case <-ctx.Done():
					wireSrv.Close()
					<-wireDone
				}
			}
			err := httpSrv.Shutdown(ctx)
			cancel()
			if cerr := checkpoint(); cerr != nil {
				return cerr
			}
			fmt.Fprintf(stdout, "mpipredictd: drained, exiting\n")
			return err
		case err := <-serveErr:
			return err
		case err := <-wireErr:
			return err
		case <-sweep.C:
			if n := reg.SweepIdle(); n > 0 {
				fmt.Fprintf(stdout, "mpipredictd: evicted %d idle sessions\n", n)
			}
		case <-snapTick:
			if err := checkpoint(); err != nil {
				// An interval checkpoint failure (full disk, permissions) is
				// worth reporting but not worth killing a healthy daemon.
				fmt.Fprintf(stderr, "mpipredictd: checkpoint failed: %v\n", err)
			}
		}
	}
}

// validateTraceFile drains the file through the block reader without
// keeping anything, surfacing any malformation or checksum mismatch.
func validateTraceFile(path string) error {
	src, err := stream.OpenFile(path)
	if err != nil {
		return err
	}
	defer src.Close()
	var blk stream.EventBlock
	for {
		err := src.Next(&blk)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// replayFile streams a trace file through a daemon's observe API as
// columnar blocks, in constant memory.
func replayFile(ctx context.Context, target, path string, batch int, transport string) (serve.ReplayStats, error) {
	src, err := stream.OpenFile(path)
	if err != nil {
		return serve.ReplayStats{}, err
	}
	defer src.Close()
	return serve.ReplaySource(ctx, target, src, serve.ReplayOptions{BatchSize: batch, Transport: transport})
}

// runReplayClient is client mode: push the trace into a running daemon
// and report throughput.
func runReplayClient(ctx context.Context, target, path string, batch int, transport string, stdout io.Writer) error {
	stats, err := replayFile(ctx, target, path, batch, transport)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mpipredictd: replay %s\n", stats)
	return nil
}
