package serve

// Transport selection and the wire delivery path of the replay
// ingester. ReplaySource speaks through a batchPoster: the HTTP poster
// wraps the original request-per-batch path, the wire poster pipelines
// the same sequenced batches as binary observe frames over one
// long-lived connection.
//
// Negotiation is deliberately boring: the client probes the target's
// /healthz (the endpoint every deployment already exposes) and upgrades
// when the reply advertises a "wire" address. Anything that prevents the
// upgrade — no advertisement, an unreachable wire port, a handshake
// failure — falls back to HTTP under TransportAuto, so pointing a new
// client at an old daemon (or at a cluster gateway, which fronts its
// backends over HTTP and advertises no wire listener) keeps working.
//
// The wire poster keeps the replay's delivery contract: at-least-once
// made effectively-once by per-session seqs. Its failure unit is the
// connection — when one dies, every frame the server never acknowledged
// is resent VERBATIM (same bytes, same seqs) on the next connection,
// and the server's dedup high-water mark absorbs whatever had actually
// been applied before the cut. Reconnects burn the same MaxRetries /
// SleepBackoff budget HTTP retries do.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"mpipredict/internal/wire"
)

// batchPoster is one delivery protocol for sequenced columnar batches.
type batchPoster interface {
	// deliver sends one batch reliably (retries inside). Pipelined
	// implementations may return before the server acknowledges.
	deliver(ctx context.Context, b *sessionBatch) error
	// finish blocks until everything delivered is acknowledged.
	finish(ctx context.Context) error
	close()
}

// newBatchPoster picks the transport for a replay per opts.Transport
// and records the choice in stats.Transport.
func newBatchPoster(ctx context.Context, baseURL string, opts ReplayOptions, stats *ReplayStats) (batchPoster, error) {
	wireAddr := ""
	if after, ok := strings.CutPrefix(baseURL, "wire://"); ok {
		if opts.Transport == TransportHTTP {
			return nil, fmt.Errorf("serve: target %q is a wire address but Transport is %q", baseURL, TransportHTTP)
		}
		wireAddr = after
	}
	switch opts.Transport {
	case TransportHTTP, "":
		// "" with a wire:// target still means wire (checked above);
		// otherwise the default is plain HTTP, probe-free.
		if wireAddr == "" {
			stats.Transport = TransportHTTP
			return &httpPoster{baseURL: baseURL, opts: opts, stats: stats}, nil
		}
	case TransportWire:
		if wireAddr == "" {
			addr, err := probeWireAddr(ctx, opts.Client, baseURL)
			if err != nil {
				return nil, fmt.Errorf("serve: target advertises no wire listener: %w", err)
			}
			wireAddr = addr
		}
	case TransportAuto:
		if wireAddr == "" {
			// Best effort: any probe failure means HTTP.
			wireAddr, _ = probeWireAddr(ctx, opts.Client, baseURL)
		}
	default:
		return nil, fmt.Errorf("serve: unknown transport %q (want %q, %q or %q)", opts.Transport, TransportAuto, TransportHTTP, TransportWire)
	}
	if wireAddr == "" {
		stats.Transport = TransportHTTP
		return &httpPoster{baseURL: baseURL, opts: opts, stats: stats}, nil
	}
	p := &wirePoster{addr: wireAddr, opts: opts, stats: stats}
	if err := p.ensure(ctx); err != nil {
		if opts.Transport == TransportWire || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("serve: connecting wire transport to %s: %w", wireAddr, err)
		}
		// Auto mode: an advertised-but-unreachable wire listener (e.g. a
		// firewalled port) degrades to HTTP instead of failing the replay.
		stats.Transport = TransportHTTP
		return &httpPoster{baseURL: baseURL, opts: opts, stats: stats}, nil
	}
	stats.Transport = TransportWire
	return p, nil
}

// healthzReply is the /healthz subset negotiation reads.
type healthzReply struct {
	Wire string `json:"wire"`
}

// probeWireAddr asks the target's /healthz for an advertised wire
// listener. A daemon listening on an unspecified address (":9090",
// "0.0.0.0:9090") advertises that literally; the probe substitutes the
// host it actually reached the daemon by.
func probeWireAddr(ctx context.Context, client *http.Client, baseURL string) (string, error) {
	if client == nil {
		client = NewReplayClient()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("healthz returned %s", resp.Status)
	}
	var reply healthzReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return "", fmt.Errorf("decoding healthz: %w", err)
	}
	if reply.Wire == "" {
		return "", fmt.Errorf("healthz advertises no wire listener")
	}
	return rewriteWireHost(reply.Wire, req.URL.Host), nil
}

// rewriteWireHost replaces an unspecified advertised host with the host
// the HTTP probe reached.
func rewriteWireHost(advertised, probed string) string {
	host, port, err := net.SplitHostPort(advertised)
	if err != nil {
		return advertised
	}
	if ip := net.ParseIP(host); host != "" && (ip == nil || !ip.IsUnspecified()) {
		return advertised
	}
	probedHost, _, err := net.SplitHostPort(probed)
	if err != nil {
		probedHost = probed
	}
	return net.JoinHostPort(probedHost, port)
}

// httpPoster is the original request-per-batch HTTP delivery.
type httpPoster struct {
	baseURL string
	opts    ReplayOptions
	stats   *ReplayStats
}

func (p *httpPoster) deliver(ctx context.Context, b *sessionBatch) error {
	return postBatchReliably(ctx, p.stats, p.opts, p.baseURL, b)
}

func (p *httpPoster) finish(ctx context.Context) error { return nil }
func (p *httpPoster) close()                           {}

// wirePoster pipelines batches as binary observe frames.
type wirePoster struct {
	addr  string
	opts  ReplayOptions
	stats *ReplayStats

	c       *wire.Client
	pending [][]byte // frames inherited from dead connections, oldest first
	dups    uint64   // duplicate count accumulated from retired connections
}

// ensure has a live connection up, with every inherited frame from dead
// connections resent on it. One attempt; the caller owns retry budget.
func (p *wirePoster) ensure(ctx context.Context) error {
	if p.c != nil && p.c.Err() == nil {
		return nil
	}
	p.retire()
	c, err := wire.Dial(ctx, p.addr, wire.ClientOptions{})
	if err != nil {
		return p.classify(ctx, err)
	}
	p.c = c
	for len(p.pending) > 0 {
		p.stats.Requests++
		p.stats.Retries++
		if err := c.ObserveFrame(ctx, p.pending[0]); err != nil {
			return p.classify(ctx, err)
		}
		p.pending = p.pending[1:]
	}
	return nil
}

// retire collects a dead connection's unacknowledged frames (for
// verbatim resend) and its duplicate watermark, then closes it.
func (p *wirePoster) retire() {
	if p.c == nil {
		return
	}
	_, d := p.c.Acked()
	p.dups += d
	p.pending = append(p.pending, p.c.UnackedFrames()...)
	p.c.Close()
	p.c = nil
}

// classify maps a wire failure onto the replay's retry policy: context
// ends and permanent server refusals pass through, everything else —
// transport errors, corruption, CodeUnavailable — is retryable by
// reconnecting.
func (p *wirePoster) classify(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	var remote *wire.RemoteError
	if errors.As(err, &remote) && !remote.Retryable() {
		return err
	}
	return &retryableError{err}
}

// withRetries runs op under the replay's shared retry budget.
func (p *wirePoster) withRetries(ctx context.Context, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if !isRetryable(err) {
			return err
		}
		if attempt >= p.opts.MaxRetries {
			return fmt.Errorf("giving up after %d attempts: %w", attempt+1, err)
		}
		var retryAfter time.Duration
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			// An unavailable server asked us to come back; give it the
			// same beat an HTTP Retry-After would.
			retryAfter = p.opts.RetryBase
		}
		if err := SleepBackoff(ctx, p.opts.RetryBase, attempt, retryAfter); err != nil {
			return err
		}
	}
}

func (p *wirePoster) deliver(ctx context.Context, b *sessionBatch) error {
	frame := wire.AppendObserve(nil, p.opts.Tenant, b.stream, "", b.seq, b.senders, b.sizes)
	return p.withRetries(ctx, func() error {
		if err := p.ensure(ctx); err != nil {
			return err
		}
		p.stats.Requests++
		// If the write dies after the frame entered the unacked window,
		// retire() inherits it and the next connection resends it with
		// the same seq — the server-side dedup makes that harmless even
		// when the first delivery had in fact been applied.
		return p.classify(ctx, p.c.ObserveFrame(ctx, frame))
	})
}

func (p *wirePoster) finish(ctx context.Context) error {
	err := p.withRetries(ctx, func() error {
		if err := p.ensure(ctx); err != nil {
			return err
		}
		return p.classify(ctx, p.c.Flush(ctx))
	})
	if err != nil {
		return err
	}
	_, d := p.c.Acked()
	p.stats.Duplicates = int64(p.dups + d)
	return nil
}

func (p *wirePoster) close() {
	if p.c != nil {
		p.c.Close()
		p.c = nil
	}
}
