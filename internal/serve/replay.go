package serve

// The replay ingester: feed a recorded trace (any .mpts or JSONL file the
// repo can produce, or any composed stream.Source) through a running
// daemon's HTTP API. Every traced (receiver, level) pair becomes one
// session, so a corpus trace doubles as a load generator — `mpipredictd
// -replay testdata/corpus/bt.4.mpts -target http://...` pushes the exact
// event streams the offline harness evaluates, and the daemon's sessions
// end up in the exact state the offline predictors reach.
//
// The ingester is block-based end to end: events arrive in columnar
// EventBlocks, are bucketed per (receiver, level) session into columnar
// batch buffers, and leave as columnar observe requests that land on the
// registry's one ingest method, ObserveBlockSeq. Memory is bounded by sessions ×
// batch size — independent of the trace length — so a trace far larger
// than RAM replays in one pass.
//
// Delivery is at-least-once made effectively-once: every batch carries a
// per-session monotonic sequence number, and transient failures (429,
// 5xx, transport errors) are retried with exponential backoff and
// jitter. A retry of a request whose response was lost is acknowledged
// by the server as a duplicate and not re-observed, so a replay through
// a lossy network converges to exactly the state of a clean replay.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
)

// StreamName is the canonical session stream name for one traced
// (receiver, level) pair. The daemon's replay and the evaluation tests use
// it so both always address the same session.
func StreamName(receiver int, level trace.Level) string {
	return fmt.Sprintf("r%d/%s", receiver, level)
}

// DefaultMaxRetries is the per-batch retry budget when
// ReplayOptions.MaxRetries is zero. With the default backoff schedule it
// spans several seconds of sustained failure before giving up.
const DefaultMaxRetries = 8

// DefaultRetryBase is the first retry delay when ReplayOptions.RetryBase
// is zero; each subsequent attempt doubles it (with jitter), capped at
// maxRetryBackoff.
const DefaultRetryBase = 25 * time.Millisecond

// maxRetryBackoff caps the exponential growth so a long outage polls
// about once a second instead of sleeping for minutes.
const maxRetryBackoff = time.Second

// ReplayOptions control a trace replay.
type ReplayOptions struct {
	// Tenant overrides the session tenant (default: "<app>.<procs>" from
	// the source's metadata; required when the source carries none).
	Tenant string
	// BatchSize is the number of events per observe request (default 64).
	BatchSize int
	// Client is the HTTP client to use. The default is a dedicated client
	// with dial and request timeouts — not http.DefaultClient, which has
	// none and would hang the replay forever on a stuck connection.
	Client *http.Client
	// MaxRetries bounds the retry attempts per batch after the first
	// delivery fails with a retryable error (429, 5xx, transport).
	// Default DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// RetryBase is the initial backoff delay. Default DefaultRetryBase.
	RetryBase time.Duration
	// Transport selects the delivery protocol. "auto" probes the
	// target's /healthz for an advertised binary wire listener and uses
	// it when present, falling back to HTTP; "wire" requires the wire
	// listener (and accepts a bare "wire://host:port" target); "http"
	// forces HTTP/JSON. The default "" speaks HTTP — except for a
	// "wire://" target, which is inherently wire — so existing callers
	// see no extra probe traffic; the daemon's -transport flag defaults
	// to "auto".
	Transport string
}

// Transport values for ReplayOptions.Transport.
const (
	TransportAuto = "auto"
	TransportHTTP = "http"
	TransportWire = "wire"
)

// ReplayStats summarize one replay.
type ReplayStats struct {
	Tenant     string
	Transport  string        // delivery protocol actually used ("http" or "wire")
	Sessions   int           // sessions fed (one per traced receiver and level)
	Events     int64         // events delivered (including duplicate-acked retries)
	Requests   int64         // observe requests/frames issued, retries included
	Retries    int64         // re-deliveries after a retryable failure
	Duplicates int64         // batches the server acked as already applied
	Duration   time.Duration // wall-clock time of the whole replay
}

// EventsPerSec returns the observed ingest throughput.
func (s ReplayStats) EventsPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Events) / s.Duration.Seconds()
}

// String renders the stats the way the daemon reports them.
func (s ReplayStats) String() string {
	transport := s.Transport
	if transport == "" {
		transport = TransportHTTP
	}
	return fmt.Sprintf("tenant=%s transport=%s sessions=%d events=%d requests=%d retries=%d duplicates=%d duration=%s throughput=%.0f events/s",
		s.Tenant, transport, s.Sessions, s.Events, s.Requests, s.Retries, s.Duplicates, s.Duration.Round(time.Millisecond), s.EventsPerSec())
}

// NewReplayClient returns the dedicated HTTP client replays default to:
// bounded dial, header and whole-request times, so a wedged daemon fails
// the replay instead of hanging it.
func NewReplayClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			ResponseHeaderTimeout: 10 * time.Second,
			MaxIdleConnsPerHost:   4,
			IdleConnTimeout:       time.Minute,
		},
	}
}

// sessionBatch is the per-(receiver, level) columnar accumulation buffer.
// seq is the session's batch sequence counter: incremented once per
// batch, resent unchanged on every retry of that batch, which is what
// lets the server tell a retry from new data.
type sessionBatch struct {
	stream  string
	seq     int64
	senders []int64
	sizes   []int64
}

// replayKey orders session flushes deterministically.
type replayKey struct {
	receiver int
	level    trace.Level
}

// ReplaySource feeds every traced (receiver, level) stream of a block
// source through the observe API of the daemon at baseURL. Events of one
// session are sent in stream order (batched into columnar observe
// requests), so the daemon's predictor state after the replay is exactly
// what the offline harness computes for the same streams. Cancelling ctx
// aborts the replay between requests and during backoff sleeps.
func ReplaySource(ctx context.Context, baseURL string, src stream.Source, opts ReplayOptions) (ReplayStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Tenant == "" {
		md, ok := stream.MetaOf(src)
		if !ok {
			return ReplayStats{}, fmt.Errorf("serve: replay source carries no app/procs metadata; set ReplayOptions.Tenant")
		}
		opts.Tenant = fmt.Sprintf("%s.%d", md.App, md.Procs)
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 64
	}
	if opts.Client == nil {
		opts.Client = NewReplayClient()
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = DefaultRetryBase
	}
	stats := ReplayStats{Tenant: opts.Tenant}
	start := time.Now()
	poster, err := newBatchPoster(ctx, baseURL, opts, &stats)
	if err != nil {
		return stats, err
	}
	defer poster.close()
	batches := make(map[replayKey]*sessionBatch)
	flush := func(b *sessionBatch) error {
		if len(b.senders) == 0 {
			return nil
		}
		b.seq++
		if err := poster.deliver(ctx, b); err != nil {
			return fmt.Errorf("serve: replaying %s/%s batch %d: %w", opts.Tenant, b.stream, b.seq, err)
		}
		stats.Events += int64(len(b.senders))
		b.senders = b.senders[:0]
		b.sizes = b.sizes[:0]
		return nil
	}

	var blk stream.EventBlock
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		err := src.Next(&blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		for i := 0; i < blk.Len(); i++ {
			k := replayKey{blk.Receiver[i], blk.Level[i]}
			b := batches[k]
			if b == nil {
				b = &sessionBatch{
					stream:  StreamName(k.receiver, k.level),
					senders: make([]int64, 0, opts.BatchSize),
					sizes:   make([]int64, 0, opts.BatchSize),
				}
				batches[k] = b
				stats.Sessions++
			}
			b.senders = append(b.senders, blk.Sender[i])
			b.sizes = append(b.sizes, blk.Size[i])
			if len(b.senders) >= opts.BatchSize {
				if err := flush(b); err != nil {
					return stats, err
				}
			}
		}
	}
	// Flush the partial tails in a fixed session order, so the request
	// sequence of a replay is deterministic.
	keys := make([]replayKey, 0, len(batches))
	for k := range batches {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].receiver != keys[j].receiver {
			return keys[i].receiver < keys[j].receiver
		}
		return keys[i].level < keys[j].level
	})
	for _, k := range keys {
		if err := flush(batches[k]); err != nil {
			return stats, err
		}
	}
	// Pipelined transports hold unacknowledged frames until here; a
	// replay only returns once every batch is acknowledged.
	if err := poster.finish(ctx); err != nil {
		return stats, err
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// postBatchReliably delivers one sequenced batch at least once: it
// retries retryable failures (429/5xx/transport errors) with capped
// exponential backoff, full jitter and Retry-After honoring, until the
// server acks — possibly as a duplicate, which counts as success.
func postBatchReliably(ctx context.Context, stats *ReplayStats, opts ReplayOptions, baseURL string, b *sessionBatch) error {
	for attempt := 0; ; attempt++ {
		stats.Requests++
		dup, retryAfter, err := postObserveColumns(ctx, opts.Client, baseURL, opts.Tenant, b)
		if err == nil {
			if dup {
				stats.Duplicates++
			}
			return nil
		}
		if !isRetryable(err) {
			return err
		}
		if attempt >= opts.MaxRetries {
			return fmt.Errorf("giving up after %d attempts: %w", attempt+1, err)
		}
		stats.Retries++
		if err := SleepBackoff(ctx, opts.RetryBase, attempt, retryAfter); err != nil {
			return err
		}
	}
}

// retryableError marks a delivery failure worth retrying. Transport
// errors are wrapped in it; HTTP statuses map through statusRetryable.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func isRetryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re)
}

// backoffDelay is base·2^attempt clamped to (0, maxRetryBackoff]. The
// shift is guarded before it happens: a raw base<<attempt wraps int64 for
// large attempts and can land on a small positive value that slips past
// an after-the-fact range check, collapsing backoff mid-outage.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return maxRetryBackoff
	}
	// base ≤ maxRetryBackoff>>attempt ⟺ base<<attempt ≤ maxRetryBackoff,
	// with no overflow on either side; attempt ≥ 63 always overflows.
	if attempt < 0 || attempt >= 63 || base > maxRetryBackoff>>uint(attempt) {
		return maxRetryBackoff
	}
	return base << uint(attempt)
}

// SleepBackoff waits base·2^attempt (capped at one second, full-jittered,
// at least retryAfter when the server named one) or until ctx is
// cancelled. It is the module's one retry clock: the replay ingester and
// the cluster gateway's backend forwarding both sleep through it, so every
// hop of a multi-tier deployment decorrelates its retry storms the same
// way.
func SleepBackoff(ctx context.Context, base time.Duration, attempt int, retryAfter time.Duration) error {
	d := backoffDelay(base, attempt)
	// Full jitter: uniform in [d/2, d). Decorrelates the retry storms of
	// many replay clients hammering one recovering server.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ParseRetryAfter interprets a Retry-After header value as a wait hint.
// RFC 9110 allows two forms — delta-seconds and an HTTP-date — and real
// proxies emit both, so the retry path accepts either: a non-negative
// integer becomes that many seconds, a parseable HTTP-date becomes the
// time remaining until it (zero when the date already passed — "retry
// now" is still a valid hint). Everything else, including negative
// numbers, delta-seconds too large for a time.Duration and garbage,
// reports ok false and the caller falls back to its own backoff
// schedule; a malformed header must never stall or break a retry loop.
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs < 0 || secs > math.MaxInt64/int64(time.Second) {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// observeReply is the subset of the observe response the replay needs.
type observeReply struct {
	Duplicate bool `json:"duplicate"`
}

// postObserveColumns issues one sequenced columnar observe request and
// classifies the outcome: success (with the server's duplicate verdict),
// a retryable failure (with any Retry-After hint), or a permanent error.
func postObserveColumns(ctx context.Context, client *http.Client, baseURL, tenant string, b *sessionBatch) (duplicate bool, retryAfter time.Duration, err error) {
	body, err := json.Marshal(observeRequest{Tenant: tenant, Stream: b.stream, Seq: b.seq, Senders: b.senders, Sizes: b.sizes})
	if err != nil {
		return false, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/observe", bytes.NewReader(body))
	if err != nil {
		return false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, 0, ctx.Err()
		}
		return false, 0, &retryableError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		statusErr := fmt.Errorf("observe returned %s: %s", resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			if d, ok := ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				retryAfter = d
			}
			return false, retryAfter, &retryableError{statusErr}
		}
		return false, 0, statusErr
	}
	var reply observeReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&reply); err != nil {
		// A 200 whose body was lost in transit: the batch WAS applied, but
		// the ack is unreadable. Retrying is safe — the seq makes the
		// re-delivery a duplicate.
		return false, 0, &retryableError{fmt.Errorf("reading observe ack: %w", err)}
	}
	// Drain so the client can reuse the connection.
	io.Copy(io.Discard, resp.Body)
	return reply.Duplicate, 0, nil
}
