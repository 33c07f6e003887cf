package serve

// The tentpole end-to-end proof of the resilience layer: a replay driven
// through heavy injected failure — synthesized 5xx, connection resets,
// lost responses, truncated bodies — must converge to *exactly* the
// state of a clean replay. The retry layer makes delivery at-least-once;
// the per-batch sequence numbers make it effectively-once; byte-equal
// snapshots prove no event was lost or double-counted anywhere.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpipredict/internal/faultinject"
	"mpipredict/internal/stream"
)

// fastRetry keeps chaos tests quick: real backoff schedules are for
// production outages, not loopback fault injection. Batch size 1 turns
// the small golden trace (66 events) into enough requests for the fault
// probabilities to bite on; the clean baseline must use the same size so
// both replays produce identical per-session batch sequences.
func fastRetry() ReplayOptions {
	return ReplayOptions{BatchSize: 1, RetryBase: time.Millisecond, MaxRetries: 20}
}

// cleanReplayBytes replays the named corpus trace into a fresh server and
// returns the canonical snapshot encoding of the resulting sessions.
func cleanReplayBytes(t *testing.T, name string) []byte {
	t.Helper()
	tr := corpusTrace(t, name)
	srv := NewServer(NewRegistry(Config{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), ReplayOptions{BatchSize: 1}); err != nil {
		t.Fatal(err)
	}
	return encodeSnapshot(t, srv.Registry().SnapshotSessions())
}

// chaosConfig is the acceptance-criteria fault mix: every fault class at
// well above 5%, against a fixed seed so failures reproduce.
func chaosConfig() faultinject.Config {
	return faultinject.Config{
		Seed:             1803,
		ErrorProb:        0.08,
		ResetProb:        0.08,
		DropResponseProb: 0.08,
		TruncateProb:     0.08,
	}
}

// TestChaosReplayConvergesByteIdentical replays the golden corpus
// through a fault-injecting client transport and requires the daemon's
// final session snapshots to be byte-identical to a clean replay's —
// with every fault class actually exercised along the way.
func TestChaosReplayConvergesByteIdentical(t *testing.T) {
	want := cleanReplayBytes(t, "bt.4.mpts")
	tr := corpusTrace(t, "bt.4.mpts")

	srv := NewServer(NewRegistry(Config{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	chaos := faultinject.NewTransport(chaosConfig(), nil)
	opts := fastRetry()
	opts.Client = &http.Client{Transport: chaos}

	stats, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), opts)
	if err != nil {
		t.Fatalf("chaos replay failed: %v (stats %+v, injected %+v)", err, stats, chaos.Injected())
	}
	counts := chaos.Injected()
	if counts.Errors == 0 || counts.Resets == 0 || counts.Drops == 0 || counts.Truncates == 0 {
		t.Fatalf("fault mix did not exercise every class: %+v", counts)
	}
	if stats.Retries == 0 {
		t.Fatalf("chaos replay survived without retrying: %+v", stats)
	}
	// Drops and truncations destroy acks of batches the server DID apply;
	// their retries must have been recognized as duplicates.
	if stats.Duplicates == 0 {
		t.Fatalf("no retry was acked as a duplicate despite %d drops and %d truncations: %+v",
			counts.Drops, counts.Truncates, stats)
	}
	got := encodeSnapshot(t, srv.Registry().SnapshotSessions())
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos replay state diverged from clean replay (chaos %d bytes, clean %d bytes; stats %+v, injected %+v)",
			len(got), len(want), stats, counts)
	}
	// The server may count MORE duplicates than the client saw acked: the
	// ack of a duplicate can itself be destroyed, so its retry is a second
	// duplicate the client never hears about. Fewer is impossible.
	if n := srv.Registry().Stats().DupBatches; n < stats.Duplicates {
		t.Fatalf("server counted %d duplicate batches, client saw %d acked", n, stats.Duplicates)
	}
}

// TestChaosReplayThroughServerMiddleware is the server-side twin: the
// same fault mix injected by the middleware the daemon's -chaos flag
// installs (resets arrive as hijacked-and-closed connections, truncated
// bodies as cut chunked replies) must converge identically too.
func TestChaosReplayThroughServerMiddleware(t *testing.T) {
	want := cleanReplayBytes(t, "bt.4.mpts")
	tr := corpusTrace(t, "bt.4.mpts")

	srv := NewServer(NewRegistry(Config{}))
	ts := httptest.NewServer(faultinject.Middleware(chaosConfig(), srv))
	defer ts.Close()

	stats, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), fastRetry())
	if err != nil {
		t.Fatalf("chaos replay failed: %v (stats %+v)", err, stats)
	}
	if stats.Retries == 0 || stats.Duplicates == 0 {
		t.Fatalf("middleware chaos did not exercise retry/dedup: %+v", stats)
	}
	got := encodeSnapshot(t, srv.Registry().SnapshotSessions())
	if !bytes.Equal(got, want) {
		t.Fatalf("middleware chaos replay diverged from clean replay (stats %+v)", stats)
	}
}

// TestReplayRetriesHonorRetryAfter pins the 429 path end to end: a
// server that sheds every other request with 429 + Retry-After must
// still receive the full stream, once.
func TestReplayRetriesHonorRetryAfter(t *testing.T) {
	tr := corpusTrace(t, "bt.4.mpts")
	srv := NewServer(NewRegistry(Config{}))
	var n, shed atomic.Int64
	shedder := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 1 {
			shed.Add(1)
			w.Header().Set("Retry-After", "0")
			http.Error(w, "shedding", http.StatusTooManyRequests)
			return
		}
		srv.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(shedder)
	defer ts.Close()

	stats, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	if shed.Load() == 0 || stats.Retries < shed.Load() {
		t.Fatalf("shed %d requests but retried %d times", shed.Load(), stats.Retries)
	}
	// A shed request never reached the registry, so no duplicates arise.
	if stats.Duplicates != 0 {
		t.Fatalf("429s produced %d duplicates; they must not reach the registry", stats.Duplicates)
	}
	var total int64
	for _, s := range srv.Registry().Sessions() {
		total += s.Observed
	}
	if total != stats.Events {
		t.Fatalf("registry observed %d events, replay delivered %d", total, stats.Events)
	}
}

// TestReplayDoesNotRetryPermanentErrors pins fail-fast on client bugs: a
// 4xx (other than 429) is not retryable, so a broken request errors out
// after exactly one attempt instead of hammering the server.
func TestReplayDoesNotRetryPermanentErrors(t *testing.T) {
	tr := corpusTrace(t, "bt.4.mpts")
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"no"}`, http.StatusForbidden)
	}))
	defer ts.Close()

	_, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), fastRetry())
	if err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("err = %v, want a 403 failure", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("permanent error was attempted %d times, want 1", got)
	}
}

// TestReplayContextCancellation pins the satellite contract: cancelling
// the context aborts a replay stuck in retry loops.
func TestReplayContextCancellation(t *testing.T) {
	tr := corpusTrace(t, "bt.4.mpts")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		opts := ReplayOptions{RetryBase: 10 * time.Millisecond, MaxRetries: 1 << 20}
		_, err := ReplaySource(ctx, ts.URL, stream.TraceSource(tr), opts)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("cancelled replay returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replay did not abort within 5s of cancellation")
	}
}
