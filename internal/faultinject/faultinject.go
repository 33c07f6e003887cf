// Package faultinject is a deterministic, seeded chaos layer for the
// serving stack: an http.RoundTripper that makes a client's view of the
// network unreliable, and an http.Handler middleware that makes a server
// unreliable, both driven by one probability table.
//
// The faults model the partial failures an online learner's ingest path
// meets in production — and must absorb without corrupting learned state:
//
//   - latency: a request stalls before it is sent (client) or before it
//     is handled (server)
//   - reset: the connection dies before the request reaches the handler,
//     so the server never applied it and a retry is safe
//   - response loss / truncation: the handler ran and the state WAS
//     applied, but the client cannot know — the dangerous case, where a
//     blind retry double-counts events unless the server deduplicates
//   - 5xx: the server refuses up front (overload, injected error), with
//     a Retry-After hint
//
// Every decision comes from a single seeded PRNG, so a serial client (the
// replay ingester issues requests one at a time) sees an exactly
// reproducible fault schedule: the chaos end-to-end tests replay a golden
// trace through a given seed and pin the converged state byte-for-byte.
// Concurrent use is safe but interleaving then chooses the schedule.
package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config is the probability table of one chaos layer. All probabilities
// are in [0, 1] and are rolled independently per request, in the field
// order below; the zero value injects nothing.
type Config struct {
	// Seed selects the deterministic fault schedule. A zero seed is used
	// as-is (it is a valid rand seed), so the zero Config is still fully
	// deterministic.
	Seed int64

	// LatencyProb delays a request by Latency before it proceeds.
	LatencyProb float64
	// Latency is the injected delay (default 2ms when LatencyProb > 0).
	Latency time.Duration

	// ErrorProb answers 503 Service Unavailable (with a Retry-After: 0
	// hint) without running the handler — or, on the client side,
	// synthesizes the 503 without contacting the server at all. The
	// request is NOT applied; a retry is safe.
	ErrorProb float64

	// ResetProb kills the connection before the request is delivered: the
	// client transport returns a transport error without sending, the
	// server middleware hijacks and closes the TCP connection before
	// running the handler. The request is NOT applied.
	ResetProb float64

	// DropResponseProb delivers the request and runs the handler, then
	// loses the response: the client transport discards the response and
	// returns a transport error; the server middleware closes the
	// connection after the handler ran, before the response is written.
	// The request WAS applied — the retry that follows is a duplicate.
	DropResponseProb float64

	// TruncateProb delivers the request, then cuts the response body off
	// halfway. The request WAS applied; the client sees an unexpected
	// EOF mid-body and must treat the outcome as unknown.
	TruncateProb float64
}

// Enabled reports whether any fault has a nonzero probability.
func (c Config) Enabled() bool {
	return c.LatencyProb > 0 || c.ErrorProb > 0 || c.ResetProb > 0 ||
		c.DropResponseProb > 0 || c.TruncateProb > 0
}

func (c Config) withDefaults() Config {
	if c.LatencyProb > 0 && c.Latency <= 0 {
		c.Latency = 2 * time.Millisecond
	}
	return c
}

// validate rejects probabilities outside [0, 1], NaN included.
func (c Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"latency", c.LatencyProb}, {"err", c.ErrorProb}, {"reset", c.ResetProb},
		{"drop", c.DropResponseProb}, {"truncate", c.TruncateProb},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("faultinject: %s probability %v outside [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// ParseSpec parses the -chaos flag syntax: comma-separated key=value
// pairs. Keys: err, reset, drop, truncate (probabilities in [0,1]),
// latency (either a probability or prob:duration, e.g. latency=0.1:5ms),
// and seed (int64). Example:
//
//	err=0.05,reset=0.05,drop=0.05,truncate=0.05,latency=0.1:2ms,seed=42
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, fmt.Errorf("faultinject: empty chaos spec")
	}
	for _, field := range strings.Split(spec, ",") {
		key, value, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: chaos field %q is not key=value", field)
		}
		prob := func(s string) (float64, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || !(v >= 0 && v <= 1) {
				return 0, fmt.Errorf("faultinject: %s probability %q is not in [0, 1]", key, s)
			}
			return v, nil
		}
		var err error
		switch key {
		case "err":
			cfg.ErrorProb, err = prob(value)
		case "reset":
			cfg.ResetProb, err = prob(value)
		case "drop":
			cfg.DropResponseProb, err = prob(value)
		case "truncate":
			cfg.TruncateProb, err = prob(value)
		case "latency":
			p, dur, hasDur := strings.Cut(value, ":")
			if cfg.LatencyProb, err = prob(p); err != nil {
				break
			}
			if hasDur {
				if cfg.Latency, err = time.ParseDuration(dur); err != nil || cfg.Latency < 0 {
					err = fmt.Errorf("faultinject: bad latency duration %q", dur)
				}
			}
		case "seed":
			cfg.Seed, err = strconv.ParseInt(value, 10, 64)
			if err != nil {
				err = fmt.Errorf("faultinject: bad seed %q", value)
			}
		default:
			err = fmt.Errorf("faultinject: unknown chaos key %q (known: err, reset, drop, truncate, latency, seed)", key)
		}
		if err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// dice is the shared locked PRNG behind one chaos layer.
type dice struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newDice(seed int64) *dice { return &dice{rng: rand.New(rand.NewSource(seed))} }

// roll draws one uniform variate and reports whether it fell under p.
// Every probability consumes exactly one draw even when p is zero, so
// enabling one fault never reshuffles the schedule of the others.
func (d *dice) roll(p float64) bool {
	d.mu.Lock()
	v := d.rng.Float64()
	d.mu.Unlock()
	return v < p
}

// Transport is a chaos http.RoundTripper: it wraps an inner transport and
// injects the configured faults into the client's view of the exchange.
type Transport struct {
	cfg   Config
	inner http.RoundTripper
	dice  *dice

	// injected counts faults by kind; tests read it through Injected to
	// assert the schedule actually exercised every failure mode.
	injected counts
}

// counts tallies injected faults by kind under a lock.
type counts struct {
	mu sync.Mutex
	t  Tally
}

// Tally is one copy of the fault counters.
type Tally struct {
	Latency   int64
	Errors    int64
	Resets    int64
	Drops     int64
	Truncates int64
}

func (c *counts) add(f *int64) {
	c.mu.Lock()
	*f++
	c.mu.Unlock()
}

func (c *counts) snapshot() Tally {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// NewTransport wraps inner (http.DefaultTransport when nil) in the chaos
// layer. It panics on an invalid config — chaos belongs to tests and the
// hidden -chaos flag, both of which validate first.
func NewTransport(cfg Config, inner http.RoundTripper) *Transport {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{cfg: cfg.withDefaults(), inner: inner, dice: newDice(cfg.Seed)}
}

// Injected returns the fault tallies so far.
func (t *Transport) Injected() Tally { return t.injected.snapshot() }

// errInjected is the transport error of client-side resets and response
// drops.
type errInjected string

func (e errInjected) Error() string { return "faultinject: injected " + string(e) }

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.dice.roll(t.cfg.LatencyProb) {
		t.injected.add(&t.injected.t.Latency)
		time.Sleep(t.cfg.Latency)
	}
	if t.dice.roll(t.cfg.ErrorProb) {
		// Synthesized 503: the server never saw the request. The body is
		// closed per the RoundTripper contract for un-sent requests.
		t.injected.add(&t.injected.t.Errors)
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			Status:     "503 Service Unavailable (injected)",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Header:  http.Header{"Retry-After": []string{"0"}},
			Body:    io.NopCloser(strings.NewReader(`{"error":"injected 503"}`)),
			Request: req,
		}, nil
	}
	if t.dice.roll(t.cfg.ResetProb) {
		t.injected.add(&t.injected.t.Resets)
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errInjected("connection reset before send")
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.dice.roll(t.cfg.DropResponseProb) {
		// The server processed the request; the client loses the answer.
		t.injected.add(&t.injected.t.Drops)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errInjected("response lost after delivery")
	}
	if t.dice.roll(t.cfg.TruncateProb) {
		t.injected.add(&t.injected.t.Truncates)
		resp.Body = &truncatedBody{inner: resp.Body}
		// The advertised length no longer matches what the body yields.
		resp.ContentLength = -1
	}
	return resp, nil
}

// truncatedBody lets roughly half the body's first read through, then
// fails with an unexpected EOF, modelling a connection cut mid-transfer.
type truncatedBody struct {
	inner io.ReadCloser
	read  bool
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.read {
		return 0, io.ErrUnexpectedEOF
	}
	b.read = true
	if len(p) > 8 {
		p = p[:len(p)/2]
	}
	n, err := b.inner.Read(p)
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, nil
}

func (b *truncatedBody) Close() error { return b.inner.Close() }

// Middleware wraps next in the server-side chaos layer. Faults that fire
// before next runs (latency only delays; 503 and reset refuse) leave
// server state untouched; the response-drop and truncate faults run the
// handler first and then destroy the reply, which is how a server that
// crashes after the commit point looks to its clients.
func Middleware(cfg Config, next http.Handler) http.Handler {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	d := newDice(cfg.Seed)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d.roll(cfg.LatencyProb) {
			time.Sleep(cfg.Latency)
		}
		if d.roll(cfg.ErrorProb) {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"injected 503"}`, http.StatusServiceUnavailable)
			return
		}
		if d.roll(cfg.ResetProb) {
			// Abort the connection without a response: the client sees EOF
			// or a reset, and the handler never ran.
			abortConn(w)
			return
		}
		drop := d.roll(cfg.DropResponseProb)
		truncate := d.roll(cfg.TruncateProb)
		if !drop && !truncate {
			next.ServeHTTP(w, r)
			return
		}
		// Run the handler for real — state is applied — then sabotage the
		// reply. The recorder detaches the handler from the wire.
		rec := newResponseRecorder()
		next.ServeHTTP(rec, r)
		if drop {
			abortConn(w)
			return
		}
		// Truncate: forward the status and half the body, then cut the
		// connection so the client cannot mistake the prefix for a full
		// reply.
		for k, vs := range rec.header {
			// Dropping Content-Length forces chunked transfer, so the cut
			// below is seen as an unexpected EOF, not a short read that
			// happens to match the frame.
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.status)
		body := rec.body.Bytes()
		w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		abortConn(w)
	})
}

// abortConn hard-closes the client connection, bypassing the graceful
// response machinery. http.ErrAbortHandler is the sanctioned way to do
// that from inside a handler; net/http recovers it without logging a
// stack trace.
func abortConn(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

// responseRecorder is a minimal in-memory ResponseWriter (the middleware
// cannot import httptest outside tests).
type responseRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newResponseRecorder() *responseRecorder {
	return &responseRecorder{header: make(http.Header), status: http.StatusOK}
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(status int) { r.status = status }

func (r *responseRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }
