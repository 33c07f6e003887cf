package serve

// Retry-After handling at its edges. RFC 9110 allows delta-seconds and
// HTTP-dates, and real proxies emit malformed values of both kinds; a
// bad header must degrade to "use your own backoff", never stall or kill
// the retry loop. Plus the other half of that loop's contract: a context
// cancelled mid-backoff returns promptly, not after the sleep.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpipredict/internal/stream"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name, value string
		want        time.Duration
		ok          bool
	}{
		{"empty", "", 0, false},
		{"seconds", "3", 3 * time.Second, true},
		{"zero seconds", "0", 0, true},
		{"negative seconds", "-5", 0, false},
		{"non-numeric", "soon", 0, false},
		{"float", "1.5", 0, false},
		{"overflowing garbage", "99999999999999999999999999", 0, false},
		// Fits an int64 but not a time.Duration once scaled to seconds:
		// unchecked, it wraps to 431459h and to a negative wait.
		{"duration overflow", "20000000000", 0, false},
		{"duration overflow to negative", "9300000000", 0, false},
		{"http-date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		// A date already passed is a valid "retry now", not a parse failure.
		{"http-date past", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"http-date malformed", "Wed, 99 Xxx 2099 99:99:99 GMT", 0, false},
	}
	for _, tc := range cases {
		got, ok := ParseRetryAfter(tc.value, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.name, tc.value, got, ok, tc.want, tc.ok)
		}
	}
}

// FuzzParseRetryAfter: no header value panics the parser, and an
// accepted hint is never a negative wait.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, seed := range []string{"", "3", "-5", "1.5", "20000000000", "9300000000",
		"99999999999999999999999999", now.Add(90 * time.Second).Format(http.TimeFormat),
		"Wed, 99 Xxx 2099 99:99:99 GMT"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if d, ok := ParseRetryAfter(v, now); ok && d < 0 {
			t.Fatalf("ParseRetryAfter(%q) = (%v, true): negative wait", v, d)
		}
	})
}

// TestReplayMalformedRetryAfterStillRetries serves 503s carrying each
// malformed Retry-After form before succeeding: the replay must fall
// back to its own backoff and converge, not error or stall.
func TestReplayMalformedRetryAfterStillRetries(t *testing.T) {
	for _, header := range []string{"-5", "not-a-number", "Wed, 99 Xxx 2099 99:99:99 GMT"} {
		t.Run(header, func(t *testing.T) {
			srv := NewServer(NewRegistry(Config{}))
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) <= 2 {
					w.Header().Set("Retry-After", header)
					http.Error(w, "failing with a bad hint", http.StatusServiceUnavailable)
					return
				}
				srv.ServeHTTP(w, r)
			}))
			defer ts.Close()
			tr := corpusTrace(t, "bt.4.mpts")
			start := time.Now()
			stats, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), ReplayOptions{RetryBase: time.Millisecond})
			if err != nil {
				t.Fatalf("replay with malformed Retry-After %q: %v", header, err)
			}
			if stats.Retries != 2 {
				t.Fatalf("retries = %d, want 2", stats.Retries)
			}
			// The negative/garbage hint must not have been honored as a
			// wait: with a 1ms base, convergence is near-instant.
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("replay took %v; malformed header apparently honored as a delay", elapsed)
			}
			if srv.Registry().Len() == 0 {
				t.Fatal("no sessions created after retries")
			}
		})
	}
}

// TestReplayHonorsRetryAfterDate: a valid near-future HTTP-date hint is
// honored (the retry waits at least that long).
func TestReplayHonorsRetryAfterDate(t *testing.T) {
	srv := NewServer(NewRegistry(Config{}))
	var calls atomic.Int64
	// HTTP-dates have one-second resolution, so anything under a full
	// second can truncate to "retry now". A 2s hint survives truncation
	// with at least ~1s of honored wait.
	const hint = 2 * time.Second
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(hint).UTC().Format(http.TimeFormat))
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	tr := corpusTrace(t, "bt.4.mpts")
	start := time.Now()
	if _, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), ReplayOptions{RetryBase: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// With a 1ms base the schedule alone sleeps ~1ms; anything close to a
	// second proves the date hint drove the wait.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("replay finished in %v; Retry-After date was not honored", elapsed)
	}
}

// TestReplayCancellationMidBackoff cancels the context while the replay
// sleeps out a large Retry-After: it must return promptly with the
// context's error instead of finishing the sleep.
func TestReplayCancellationMidBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "always failing", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	tr := corpusTrace(t, "bt.4.mpts")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ReplaySource(ctx, ts.URL, stream.TraceSource(tr), ReplayOptions{RetryBase: time.Minute, MaxRetries: 100})
		done <- err
	}()
	// Give the replay time to take the 503 and enter the backoff sleep,
	// then cancel mid-sleep.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("replay returned %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancellation took %v to unwind; backoff sleep not interruptible", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replay did not return after cancellation mid-backoff")
	}
}

// TestSleepBackoffCancelledContext: the shared retry clock itself
// returns the context error immediately when already cancelled.
func TestSleepBackoffCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := SleepBackoff(ctx, time.Minute, 0, time.Hour); err != context.Canceled {
		t.Fatalf("SleepBackoff on cancelled ctx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("SleepBackoff slept %v on a cancelled context", elapsed)
	}
}

func TestReplayStatsRendering(t *testing.T) {
	s := ReplayStats{Tenant: "bt.4", Sessions: 2, Events: 100, Requests: 4, Retries: 1, Duplicates: 1, Duration: 2 * time.Second}
	if got := s.EventsPerSec(); got != 50 {
		t.Fatalf("EventsPerSec = %v, want 50", got)
	}
	if got := (ReplayStats{}).EventsPerSec(); got != 0 {
		t.Fatalf("zero-duration EventsPerSec = %v, want 0", got)
	}
	rendered := s.String()
	for _, want := range []string{"tenant=bt.4", "sessions=2", "events=100", "retries=1", "throughput=50"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("String() = %q, missing %q", rendered, want)
		}
	}
}

func TestRetryableErrorUnwraps(t *testing.T) {
	inner := errors.New("connection reset")
	wrapped := &retryableError{err: inner}
	if !errors.Is(wrapped, inner) {
		t.Fatal("retryableError does not unwrap to its cause")
	}
	if !isRetryable(fmt.Errorf("outer: %w", wrapped)) {
		t.Fatal("wrapped retryableError not detected")
	}
}
