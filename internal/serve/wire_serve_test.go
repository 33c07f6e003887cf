package serve

// End-to-end proofs for the binary wire path, mirroring the HTTP chaos
// suite: a replay over wire must leave the registry in a byte-identical
// state to the same replay over HTTP — on a clean network, under
// connection chaos (truncated frames, resets, lost acks), and for meta
// sessions — and the wire surface must share the HTTP server's
// readiness, overload and dedup behavior, not reimplement it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpipredict/internal/faultinject"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/wire"
)

// startWireServer runs a wire listener for srv on loopback and returns
// its address. Shutdown is handled by cleanup.
func startWireServer(t *testing.T, srv *Server) (*WireServer, string) {
	t.Helper()
	ws := NewWireServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Advertise before returning: a replay's /healthz probe may otherwise
	// run before Serve does and negotiate plain HTTP.
	srv.SetWireAddr(ln.Addr().String())
	go ws.Serve(ln)
	t.Cleanup(ws.Shutdown)
	return ws, ln.Addr().String()
}

// cleanReplayBytesWith replays the corpus trace over plain HTTP into a
// fresh server with the given registry config and returns the canonical
// snapshot bytes.
func cleanReplayBytesWith(t *testing.T, cfg Config) []byte {
	t.Helper()
	tr := corpusTrace(t, "bt.4.mpts")
	srv := NewServer(NewRegistry(cfg))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), ReplayOptions{BatchSize: 1}); err != nil {
		t.Fatal(err)
	}
	return encodeSnapshot(t, srv.Registry().SnapshotSessions())
}

// TestWireReplayByteIdenticalToHTTP is the core parity proof, run for
// the default strategy and for adaptive meta sessions: the same trace
// replayed through the binary wire transport must converge to exactly
// the session bytes the HTTP path produces.
func TestWireReplayByteIdenticalToHTTP(t *testing.T) {
	for _, strat := range []string{"", "meta"} {
		t.Run("strategy="+strat, func(t *testing.T) {
			cfg := Config{Strategy: strat}
			want := cleanReplayBytesWith(t, cfg)

			srv := NewServer(NewRegistry(cfg))
			ts := httptest.NewServer(srv)
			defer ts.Close()
			_, _ = startWireServer(t, srv)

			tr := corpusTrace(t, "bt.4.mpts")
			stats, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), ReplayOptions{BatchSize: 1, Transport: TransportAuto})
			if err != nil {
				t.Fatalf("wire replay: %v", err)
			}
			if stats.Transport != TransportWire {
				t.Fatalf("auto negotiation picked %q, want wire (healthz advert missing?)", stats.Transport)
			}
			got := encodeSnapshot(t, srv.Registry().SnapshotSessions())
			if !bytes.Equal(got, want) {
				t.Fatalf("wire replay state diverged from HTTP replay (wire %d bytes, http %d bytes; stats %+v)",
					len(got), len(want), stats)
			}
		})
	}
}

// TestWireChaosReplayConvergesByteIdentical is the acceptance-criteria
// chaos proof: under connection-level fault injection — accept-time
// refusals, mid-read resets, swallowed ack writes (duplicated
// deliveries on resend), truncated frames — the wire replay's
// reconnect-and-resend plus the server's sequenced dedup must converge
// to the exact clean-replay bytes.
func TestWireChaosReplayConvergesByteIdentical(t *testing.T) {
	// The wire path is far quieter than HTTP: the pipeline window
	// collapses a corpus replay into a handful of reads and one ack per
	// burst. A 10k-event synthetic trace replayed one event per frame
	// gives the stream chaos over a hundred window round trips, and a
	// hotter accept fault, so every class fires.
	src := func() stream.Source {
		return stream.SynthSource(trace.SynthConfig{App: "synth", Procs: 4, Receiver: 1,
			Pattern: []trace.SynthMessage{{Sender: 0, Size: 64}, {Sender: 2, Size: 128}, {Sender: 3, Size: 256}},
			Events:  10_000, SwapProbability: 0.1, Seed: 3})
	}
	opts := fastRetry()
	opts.Transport = TransportWire
	opts.MaxRetries = 200

	clean := NewServer(NewRegistry(Config{}))
	_, addr := startWireServer(t, clean)
	if _, err := ReplaySource(context.Background(), "wire://"+addr, src(), opts); err != nil {
		t.Fatal(err)
	}
	want := encodeSnapshot(t, clean.Registry().SnapshotSessions())

	srv := NewServer(NewRegistry(Config{}))
	ws := NewWireServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig()
	cfg.ErrorProb = 0.25
	chaos := faultinject.NewListener(cfg, ln)
	go ws.Serve(chaos)
	defer ws.Shutdown()

	stats, err := ReplaySource(context.Background(), "wire://"+ln.Addr().String(), src(), opts)
	if err != nil {
		t.Fatalf("chaos wire replay failed: %v (stats %+v, injected %+v)", err, stats, chaos.Injected())
	}
	counts := chaos.Injected()
	if counts.Errors == 0 || counts.Resets == 0 || counts.Drops == 0 || counts.Truncates == 0 {
		t.Fatalf("fault mix did not exercise every class: %+v", counts)
	}
	if stats.Retries == 0 {
		t.Fatalf("chaos replay survived without resends: %+v", stats)
	}
	// Swallowed ack writes lose acknowledgments of observe frames the
	// registry DID apply; their verbatim resends must have been absorbed
	// as duplicates.
	if srv.Registry().Stats().DupBatches == 0 {
		t.Fatalf("no duplicated delivery was absorbed despite %d dropped and %d truncated writes: %+v",
			counts.Drops, counts.Truncates, stats)
	}
	got := encodeSnapshot(t, srv.Registry().SnapshotSessions())
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos wire replay diverged from clean replay (stats %+v, injected %+v)", stats, counts)
	}
}

// TestWireReconnectResendsOpenBatchVerbatim pins the client resend
// contract directly: a frame stranded on a dead connection is retained
// byte-for-byte, resent with the same seq on the next connection, and a
// second (ambiguous) delivery of it is absorbed by the backend's dedup.
func TestWireReconnectResendsOpenBatchVerbatim(t *testing.T) {
	srv := NewServer(NewRegistry(Config{}))
	_, addr := startWireServer(t, srv)
	ctx := context.Background()

	c1, err := wire.Dial(ctx, addr, wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	senders, sizes := []int64{1, 2, 3}, []int64{8, 16, 24}
	if err := c1.ObserveBlock(ctx, "t", "s", "", 1, senders, sizes); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Second batch enters the pipeline but the connection dies before
	// any ack: the open batch stays retained, verbatim.
	if err := c1.ObserveBlock(ctx, "t", "s", "", 2, senders, sizes); err != nil {
		t.Fatal(err)
	}
	open := c1.UnackedFrames()
	if len(open) != 1 {
		t.Fatalf("open batches = %d, want 1", len(open))
	}
	wantFrame := wire.AppendObserve(nil, "t", "s", "", 2, senders, sizes)
	if !bytes.Equal(open[0], wantFrame) {
		t.Fatalf("retained frame differs from its encoding:\n  got  %x\n  want %x", open[0], wantFrame)
	}
	c1.Close()

	// Reconnect and resend the open batch verbatim — twice, modelling
	// the ambiguous case where the first delivery had in fact been
	// applied before the cut. Dedup must absorb the second copy.
	c2, err := wire.Dial(ctx, addr, wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 2; i++ {
		if err := c2.ObserveFrame(ctx, open[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, dups := c2.Acked(); dups != 1 {
		t.Fatalf("acked duplicate count = %d, want 1", dups)
	}
	if n := srv.Registry().Stats().DupBatches; n != 1 {
		t.Fatalf("registry DupBatches = %d, want 1", n)
	}
	// The doubly-delivered batch must count once: 3 + 3 events observed.
	sessions := srv.Registry().Sessions()
	if len(sessions) != 1 || sessions[0].Observed != 6 {
		t.Fatalf("sessions = %+v, want one session with 6 observed", sessions)
	}
}

// TestWirePredictMatchesHTTP pins forecast parity: the binary predict
// response carries exactly the forecasts the HTTP endpoint serves.
func TestWirePredictMatchesHTTP(t *testing.T) {
	srv := NewServer(NewRegistry(Config{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, addr := startWireServer(t, srv)
	ctx := context.Background()

	c, err := wire.Dial(ctx, addr, wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A few periods of a period-3 pattern locks the DPD.
	var senders, sizes []int64
	for i := 0; i < 30; i++ {
		senders = append(senders, int64(i%3))
		sizes = append(sizes, int64((i%3+1)*64))
	}
	if err := c.ObserveBlock(ctx, "t", "s", "", 1, senders, sizes); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	wireResp, err := wirePredict(ctx, c, "t", "s", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !wireResp.Found || wireResp.Observed != 30 {
		t.Fatalf("wire predict: %+v", wireResp)
	}

	httpResp, err := http.Get(ts.URL + "/v1/predict?tenant=t&stream=s&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var pr predictResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Forecasts) != len(wireResp.Forecasts) {
		t.Fatalf("forecast counts differ: http %d, wire %d", len(pr.Forecasts), len(wireResp.Forecasts))
	}
	for i, hf := range pr.Forecasts {
		wf := wireResp.Forecasts[i]
		if hf.Sender != wf.Sender || hf.SenderOK != wf.SenderOK || hf.Size != wf.Size || hf.SizeOK != wf.SizeOK || hf.OK != (wf.SenderOK && wf.SizeOK) {
			t.Fatalf("forecast %d differs: http %+v, wire %+v", i, hf, wf)
		}
	}

	// An absent session is found=false, the wire twin of HTTP 404.
	missing, err := wirePredict(ctx, c, "t", "nope", 5)
	if err != nil {
		t.Fatal(err)
	}
	if missing.Found || len(missing.Forecasts) != 0 {
		t.Fatalf("absent session predict: %+v", missing)
	}
}

// TestWireServerSharesReadinessGating: connections are refused with a
// retryable unavailable error while the server is restoring or
// draining — the same window /readyz fails in.
func TestWireServerSharesReadinessGating(t *testing.T) {
	srv := NewServer(NewRegistry(Config{}))
	ws, addr := startWireServer(t, srv)
	ctx := context.Background()

	srv.SetReady(false)
	c, err := wire.Dial(ctx, addr, wire.ClientOptions{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = c.ObserveBlock(ctx, "t", "s", "", 1, []int64{1}, []int64{2})
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || remote.Code != wire.CodeUnavailable || !remote.Retryable() {
		t.Fatalf("observe against a not-ready server returned %v, want retryable unavailable", err)
	}
	if !strings.Contains(remote.Msg, "starting") {
		t.Fatalf("unavailable reason %q, want starting", remote.Msg)
	}
	c.Close()

	srv.SetReady(true)
	c2, err := wire.Dial(ctx, addr, wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.ObserveBlock(ctx, "t", "s", "", 1, []int64{1}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(ctx); err != nil {
		t.Fatalf("ready server refused observe: %v", err)
	}

	if n := ws.rejUnready.Load(); n != 1 {
		t.Fatalf("rejected_unready = %d, want 1", n)
	}
}

// TestWireStrategyConflictIsPermanent: a strategy mismatch against an
// existing session comes back as a non-retryable conflict, mirroring
// HTTP 409, and fails a forced-wire replay outright.
func TestWireStrategyConflictIsPermanent(t *testing.T) {
	srv := NewServer(NewRegistry(Config{}))
	_, addr := startWireServer(t, srv)
	ctx := context.Background()

	c, err := wire.Dial(ctx, addr, wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ObserveBlock(ctx, "t", "s", "dpd", 1, []int64{1}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveBlock(ctx, "t", "s", "markov1", 2, []int64{1}, []int64{2}); err == nil {
		err = c.Flush(ctx)
		var remote *wire.RemoteError
		if !errors.As(err, &remote) || remote.Code != wire.CodeConflict || remote.Retryable() {
			t.Fatalf("strategy conflict returned %v, want non-retryable conflict", err)
		}
	}
}

// TestWireVarsComposite: the wire listener's telemetry shows up as the
// "wire" composite on /debug/vars, with decode errors counted for
// garbage connections.
func TestWireVarsComposite(t *testing.T) {
	srv := NewServer(NewRegistry(Config{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, addr := startWireServer(t, srv)
	ctx := context.Background()

	c, err := wire.Dial(ctx, addr, wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveBlock(ctx, "t", "s", "", 1, []int64{1}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// A non-wire peer: counted as a decode error, not a crash.
	garbage, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	garbage.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	garbage.Close()

	var wireVars map[string]int64
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		var vars struct {
			Wire map[string]int64 `json:"wire"`
		}
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		wireVars = vars.Wire
		if wireVars["decode_errors"] >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if wireVars["connections_total"] < 2 {
		t.Fatalf("connections_total = %d, want >= 2 (vars %v)", wireVars["connections_total"], wireVars)
	}
	if wireVars["frames"] < 1 || wireVars["observe_frames"] < 1 {
		t.Fatalf("frame counters missing: %v", wireVars)
	}
	if wireVars["decode_errors"] < 1 {
		t.Fatalf("decode_errors = %d, want >= 1 after a garbage connection (vars %v)", wireVars["decode_errors"], wireVars)
	}
}

// TestWireHealthzAdvertRewritesUnspecifiedHost: a daemon listening on
// 0.0.0.0 must be reachable through the host the client actually probed.
func TestWireHealthzAdvertRewritesUnspecifiedHost(t *testing.T) {
	cases := []struct{ advertised, probed, want string }{
		{"0.0.0.0:9090", "example.com:8080", "example.com:9090"},
		{"[::]:9090", "10.0.0.7:8080", "10.0.0.7:9090"},
		{":9090", "example.com:8080", "example.com:9090"},
		{"127.0.0.1:9090", "example.com:8080", "127.0.0.1:9090"},
		{"node3:9090", "example.com:8080", "node3:9090"},
		{"garbage", "example.com:8080", "garbage"},
	}
	for _, tc := range cases {
		if got := rewriteWireHost(tc.advertised, tc.probed); got != tc.want {
			t.Errorf("rewriteWireHost(%q, %q) = %q, want %q", tc.advertised, tc.probed, got, tc.want)
		}
	}
}

// TestLoadGenDeliversExactly: the load generator delivers exactly the
// requested event count over both transports, cleanly (no duplicates),
// across multiple connections and sessions.
func TestLoadGenDeliversExactly(t *testing.T) {
	for _, transport := range []string{TransportWire, TransportHTTP} {
		t.Run(transport, func(t *testing.T) {
			srv := NewServer(NewRegistry(Config{}))
			ts := httptest.NewServer(srv)
			defer ts.Close()
			_, _ = startWireServer(t, srv)

			const events = 10_000
			stats, err := LoadGen(context.Background(), ts.URL, LoadGenOptions{
				Events:    events,
				Sessions:  8,
				Conns:     3,
				Transport: transport,
			})
			if err != nil {
				t.Fatalf("loadgen: %v (stats %+v)", err, stats)
			}
			if stats.Transport != transport {
				t.Fatalf("transport = %q, want %q", stats.Transport, transport)
			}
			if stats.Events != events || stats.Duplicates != 0 {
				t.Fatalf("delivered %d events with %d duplicates, want %d clean", stats.Events, stats.Duplicates, events)
			}
			var observed int64
			for _, s := range srv.Registry().Sessions() {
				observed += s.Observed
			}
			if observed != events {
				t.Fatalf("registry observed %d events, want %d", observed, events)
			}
			if got := stats.String(); !strings.Contains(got, "transport="+transport) || !strings.Contains(got, "events/s") {
				t.Fatalf("stats rendering %q", got)
			}
		})
	}
}

// TestWireReplayCancellationUnwinds: cancelling the context mid-replay
// over a wire connection that stopped acking unwinds promptly.
func TestWireReplayCancellationUnwinds(t *testing.T) {
	// A listener that accepts, handshakes, then swallows everything.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				fr := wire.NewFrameReader(conn)
				if fr.Handshake() != nil {
					return
				}
				if wire.WriteHandshake(conn) != nil {
					return
				}
				for {
					if _, err := fr.ReadFrame(); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	tr := corpusTrace(t, "bt.4.mpts")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		opts := ReplayOptions{BatchSize: 1, RetryBase: time.Millisecond, MaxRetries: 1 << 20}
		_, err := ReplaySource(ctx, fmt.Sprintf("wire://%s", ln.Addr()), stream.TraceSource(tr), opts)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wire replay returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wire replay did not abort within 5s of cancellation")
	}
}

// wirePredict sends one predict request and waits for its answer.
func wirePredict(ctx context.Context, c *wire.Client, tenant, stream string, k int) (*wire.PredictRespView, error) {
	if err := c.SendPredict(ctx, 0, tenant, stream, k); err != nil {
		return nil, err
	}
	return c.NextPredict(ctx)
}
