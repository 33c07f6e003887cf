package faultinject

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("err=0.05,reset=0.1,drop=0.15,truncate=0.2,latency=0.25:5ms,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 42, LatencyProb: 0.25, Latency: 5 * time.Millisecond,
		ErrorProb: 0.05, ResetProb: 0.1, DropResponseProb: 0.15, TruncateProb: 0.2}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed config reports disabled")
	}
}

// FuzzParseSpec: whatever the flag text, an accepted spec holds only
// probabilities in [0, 1] and a non-negative latency.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"err=0.05,reset=0.1,drop=0.15,truncate=0.2,latency=0.25:5ms,seed=42",
		"latency=0.5", "err=NaN,latency=nan:1ms", "err=2", "latency=0.5:-1ms", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, p := range []float64{cfg.LatencyProb, cfg.ErrorProb, cfg.ResetProb, cfg.DropResponseProb, cfg.TruncateProb} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) accepted probability %v: %+v", spec, p, cfg)
			}
		}
		if cfg.Latency < 0 {
			t.Fatalf("ParseSpec(%q) accepted negative latency %v", spec, cfg.Latency)
		}
	})
}

func TestParseSpecLatencyWithoutDuration(t *testing.T) {
	cfg, err := ParseSpec("latency=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LatencyProb != 0.5 || cfg.Latency != 0 {
		t.Fatalf("cfg = %+v", cfg)
	}
	// The default duration is applied at construction time.
	tr := NewTransport(cfg, nil)
	if tr.cfg.Latency <= 0 {
		t.Fatal("transport did not default the latency duration")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"err",
		"err=2",
		"err=-0.1",
		"err=x",
		"err=NaN",
		"latency=nan:1ms",
		"latency=0.5:xs",
		"latency=0.5:-1ms",
		"seed=abc",
		"frobnicate=0.5",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	client := &http.Client{Transport: NewTransport(Config{}, nil)}
	for i := 0; i < 50; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok" {
			t.Fatalf("request %d: status %d body %q", i, resp.StatusCode, body)
		}
	}
}

// TestTransportDeterministicSchedule pins the chaos contract serial
// clients rely on: two transports with the same seed make identical
// fault decisions request for request.
func TestTransportDeterministicSchedule(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 256))
	}))
	defer ts.Close()

	run := func() []string {
		tr := NewTransport(Config{Seed: 7, ErrorProb: 0.2, ResetProb: 0.2, DropResponseProb: 0.2, TruncateProb: 0.2}, nil)
		client := &http.Client{Transport: tr}
		var outcomes []string
		for i := 0; i < 60; i++ {
			resp, err := client.Get(ts.URL)
			switch {
			case err != nil:
				outcomes = append(outcomes, "err")
			case resp.StatusCode == http.StatusServiceUnavailable:
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				outcomes = append(outcomes, "503")
			default:
				_, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					outcomes = append(outcomes, "truncated")
				} else {
					outcomes = append(outcomes, "ok")
				}
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: schedule diverged (%s vs %s)\na=%v\nb=%v", i, a[i], b[i], a, b)
		}
	}
	distinct := map[string]bool{}
	for _, o := range a {
		distinct[o] = true
	}
	if !distinct["err"] || !distinct["503"] || !distinct["ok"] {
		t.Fatalf("schedule too uniform to be a real test: %v", a)
	}
}

// TestTransportFaultSemantics separates the retry-safe faults (server
// never ran) from the applied-then-lost ones (server ran, reply
// destroyed) — the distinction the idempotency layer exists for.
func TestTransportFaultSemantics(t *testing.T) {
	var handled int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handled++
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, strings.Repeat("y", 512))
	}))
	defer ts.Close()

	t.Run("reset never reaches the server", func(t *testing.T) {
		handled = 0
		tr := NewTransport(Config{ResetProb: 1}, nil)
		_, err := (&http.Client{Transport: tr}).Get(ts.URL)
		if err == nil || !strings.Contains(err.Error(), "connection reset before send") {
			t.Fatalf("err = %v", err)
		}
		if handled != 0 {
			t.Fatalf("server handled %d requests through a full-reset transport", handled)
		}
	})
	t.Run("synthesized 503 never reaches the server", func(t *testing.T) {
		handled = 0
		tr := NewTransport(Config{ErrorProb: 1}, nil)
		resp, err := (&http.Client{Transport: tr}).Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if handled != 0 {
			t.Fatalf("server handled %d requests", handled)
		}
	})
	t.Run("dropped response was applied server-side", func(t *testing.T) {
		handled = 0
		tr := NewTransport(Config{DropResponseProb: 1}, nil)
		_, err := (&http.Client{Transport: tr}).Get(ts.URL)
		if err == nil || !strings.Contains(err.Error(), "response lost after delivery") {
			t.Fatalf("err = %v", err)
		}
		if handled != 1 {
			t.Fatalf("server handled %d requests, want 1", handled)
		}
	})
	t.Run("truncated body was applied server-side", func(t *testing.T) {
		handled = 0
		tr := NewTransport(Config{TruncateProb: 1}, nil)
		resp, err := (&http.Client{Transport: tr}).Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, rerr := io.ReadAll(resp.Body)
		if rerr != io.ErrUnexpectedEOF {
			t.Fatalf("read error = %v, want unexpected EOF", rerr)
		}
		if len(body) >= 512 {
			t.Fatalf("read %d bytes of a 512-byte body through a truncating transport", len(body))
		}
		if handled != 1 {
			t.Fatalf("server handled %d requests, want 1", handled)
		}
	})
}

func TestTransportCounts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	tr := NewTransport(Config{Seed: 3, ErrorProb: 0.5}, nil)
	client := &http.Client{Transport: tr}
	for i := 0; i < 40; i++ {
		if resp, err := client.Get(ts.URL); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	counts := tr.Injected()
	if counts.Errors == 0 || counts != (Tally{Errors: counts.Errors}) {
		t.Fatalf("counts = %+v", counts)
	}
}

// TestMiddlewareFaultSemantics drives the server-side chaos layer with a
// real HTTP client: injected 503s and resets must leave handler state
// untouched, drops and truncations must run the handler first.
func TestMiddlewareFaultSemantics(t *testing.T) {
	// The counter is atomic because a killed connection (reset/drop) can
	// return control to the test while the handler goroutine still runs.
	newCounting := func() (*atomic.Int32, http.Handler) {
		n := new(atomic.Int32)
		return n, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n.Add(1)
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, strings.Repeat("z", 400))
		})
	}

	t.Run("injected 503 with Retry-After", func(t *testing.T) {
		n, h := newCounting()
		ts := httptest.NewServer(Middleware(Config{ErrorProb: 1}, h))
		defer ts.Close()
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if n.Load() != 0 {
			t.Fatalf("handler ran %d times behind a full-error middleware", n.Load())
		}
	})
	t.Run("reset closes the connection without running the handler", func(t *testing.T) {
		n, h := newCounting()
		ts := httptest.NewServer(Middleware(Config{ResetProb: 1}, h))
		defer ts.Close()
		if _, err := http.Get(ts.URL); err == nil {
			t.Fatal("reset middleware produced a clean response")
		}
		if n.Load() != 0 {
			t.Fatalf("handler ran %d times", n.Load())
		}
	})
	t.Run("drop runs the handler then kills the reply", func(t *testing.T) {
		n, h := newCounting()
		ts := httptest.NewServer(Middleware(Config{DropResponseProb: 1}, h))
		defer ts.Close()
		if _, err := http.Get(ts.URL); err == nil {
			t.Fatal("drop middleware produced a clean response")
		}
		if n.Load() != 1 {
			t.Fatalf("handler ran %d times, want 1", n.Load())
		}
	})
	t.Run("truncate runs the handler and cuts the body", func(t *testing.T) {
		n, h := newCounting()
		ts := httptest.NewServer(Middleware(Config{TruncateProb: 1}, h))
		defer ts.Close()
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, rerr := io.ReadAll(resp.Body)
		if rerr == nil && len(body) >= 400 {
			t.Fatalf("read the full %d-byte body through a truncating middleware", len(body))
		}
		if n.Load() != 1 {
			t.Fatalf("handler ran %d times, want 1", n.Load())
		}
	})
	t.Run("latency only delays", func(t *testing.T) {
		n, h := newCounting()
		ts := httptest.NewServer(Middleware(Config{LatencyProb: 1, Latency: time.Millisecond}, h))
		defer ts.Close()
		start := time.Now()
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if d := time.Since(start); d < time.Millisecond {
			t.Fatalf("request took %v, want >= 1ms of injected latency", d)
		}
		if n.Load() != 1 || resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d status=%d", n.Load(), resp.StatusCode)
		}
	})
}

func TestNewTransportRejectsInvalidConfig(t *testing.T) {
	for _, p := range []float64{1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTransport accepted error probability %v", p)
				}
			}()
			NewTransport(Config{ErrorProb: p}, nil)
		}()
	}
}
