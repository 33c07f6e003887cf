package serve

// The load generator: synthetic sustained observe traffic against a
// running daemon, reporting achieved events/sec. It exists to answer
// one question honestly — how many events per second does this serving
// stack ingest end to end, protocol included? — so it generates the
// cheapest realistic workload (periodic sender/size patterns, the shape
// every NPB-style trace in the corpus has) and spends its cycles on
// delivery, not generation.
//
// Each connection owns a disjoint set of sessions and drives them
// round-robin with sequenced blocks, so runs are deterministic per
// (sessions, conns, events) and the server's seq dedup sees exactly the
// replay ingester's contract. The default predictor is markov1: cheap
// enough per observe that the measurement is of the protocol stack, not
// the model. Point it at dpd to measure model-bound ingest instead.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mpipredict/internal/stream"
	"mpipredict/internal/wire"
)

// LoadGenOptions configure a load-generation run.
type LoadGenOptions struct {
	// Events is the total number of events to deliver. Required.
	Events int64
	// Tenant namespaces the generated sessions (default "loadgen").
	Tenant string
	// Sessions is the number of distinct streams driven (default 64).
	Sessions int
	// Conns is the number of parallel connections, each owning
	// Sessions/Conns sessions (default 1).
	Conns int
	// Predictor is the strategy for created sessions (default
	// "markov1" — cheap enough that the protocol dominates).
	Predictor string
	// Transport mirrors ReplayOptions.Transport; it defaults to "auto".
	Transport string
}

const (
	// loadGenBlockLen is the events per observe frame/request: the
	// pipeline's native block size.
	loadGenBlockLen = stream.BlockLen
	// loadGenPeriod is the synthetic pattern's cycle length, the corpus
	// traces' typical period.
	loadGenPeriod = 18
)

// LoadGenStats summarize one load-generation run.
type LoadGenStats struct {
	Transport  string
	Tenant     string
	Sessions   int
	Conns      int
	Events     int64 // events delivered
	Batches    int64 // observe frames/requests issued
	Duplicates int64 // duplicate acks (0 on a clean run)
	Duration   time.Duration
}

// EventsPerSec returns the achieved ingest throughput.
func (s LoadGenStats) EventsPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Events) / s.Duration.Seconds()
}

// String renders the stats the way the daemon reports them.
func (s LoadGenStats) String() string {
	return fmt.Sprintf("loadgen transport=%s tenant=%s sessions=%d conns=%d events=%d batches=%d duplicates=%d duration=%s throughput=%.0f events/s",
		s.Transport, s.Tenant, s.Sessions, s.Conns, s.Events, s.Batches, s.Duplicates, s.Duration.Round(time.Millisecond), s.EventsPerSec())
}

func (o LoadGenOptions) withDefaults() LoadGenOptions {
	if o.Tenant == "" {
		o.Tenant = "loadgen"
	}
	if o.Sessions <= 0 {
		o.Sessions = 64
	}
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.Conns > o.Sessions {
		o.Conns = o.Sessions
	}
	if o.Predictor == "" {
		o.Predictor = "markov1"
	}
	if o.Transport == "" {
		o.Transport = TransportAuto
	}
	return o
}

// LoadGen drives opts.Events synthetic events at the daemon at target
// (an http(s):// base URL or a wire://host:port address) and reports
// the achieved throughput. It fails fast: unlike a replay, a load test
// that needs retries is a failed load test, and the first delivery
// error aborts the run.
func LoadGen(ctx context.Context, target string, opts LoadGenOptions) (LoadGenStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if opts.Events <= 0 {
		return LoadGenStats{}, fmt.Errorf("serve: loadgen needs a positive event count")
	}
	stats := LoadGenStats{Tenant: opts.Tenant, Sessions: opts.Sessions, Conns: opts.Conns}

	// Resolve the transport once, up front, with replay's negotiation.
	wireAddr := ""
	if after, ok := strings.CutPrefix(target, "wire://"); ok {
		wireAddr = after
	} else if opts.Transport != TransportHTTP {
		addr, err := probeWireAddr(ctx, nil, target)
		if err != nil {
			if opts.Transport == TransportWire {
				return stats, fmt.Errorf("serve: loadgen: target advertises no wire listener: %w", err)
			}
		} else {
			wireAddr = addr
		}
	}
	stats.Transport = TransportHTTP
	if wireAddr != "" {
		stats.Transport = TransportWire
	}

	// Partition sessions across connections; split the event budget in
	// proportion.
	type result struct {
		events, batches, dups int64
		err                   error
	}
	results := make([]result, opts.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for conn := 0; conn < opts.Conns; conn++ {
		sessions := opts.Sessions / opts.Conns
		if conn < opts.Sessions%opts.Conns {
			sessions++
		}
		budget := opts.Events / int64(opts.Conns)
		if conn == 0 {
			budget += opts.Events % int64(opts.Conns)
		}
		wg.Add(1)
		go func(conn, sessions int, budget int64) {
			defer wg.Done()
			r := &results[conn]
			if wireAddr != "" {
				r.events, r.batches, r.dups, r.err = loadGenWire(ctx, wireAddr, opts, conn, sessions, budget)
			} else {
				r.events, r.batches, r.dups, r.err = loadGenHTTP(ctx, target, opts, conn, sessions, budget)
			}
		}(conn, sessions, budget)
	}
	wg.Wait()
	stats.Duration = time.Since(start)
	for conn := range results {
		stats.Events += results[conn].events
		stats.Batches += results[conn].batches
		stats.Duplicates += results[conn].dups
		if results[conn].err != nil {
			return stats, fmt.Errorf("serve: loadgen conn %d: %w", conn, results[conn].err)
		}
	}
	return stats, nil
}

// genBlock fills the columns with the periodic pattern starting at
// event offset pos.
func genBlock(senders, sizes []int64, pos int64, period int) {
	for i := range senders {
		p := (pos + int64(i)) % int64(period)
		senders[i] = p
		sizes[i] = (p + 1) * 64
	}
}

// loadGenWire drives one wire connection's share of the load.
func loadGenWire(ctx context.Context, addr string, opts LoadGenOptions, conn, sessions int, budget int64) (events, batches, dups int64, err error) {
	c, err := wire.Dial(ctx, addr, wire.ClientOptions{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	streams := make([]string, sessions)
	seqs := make([]int64, sessions)
	pos := make([]int64, sessions)
	for i := range streams {
		streams[i] = fmt.Sprintf("g%d/%d", conn, i)
	}
	senders := make([]int64, loadGenBlockLen)
	sizes := make([]int64, loadGenBlockLen)
	for s := 0; events < budget; s = (s + 1) % sessions {
		n := int64(loadGenBlockLen)
		if rest := budget - events; rest < n {
			n = rest
		}
		genBlock(senders[:n], sizes[:n], pos[s], loadGenPeriod)
		seqs[s]++
		if err := c.ObserveBlock(ctx, opts.Tenant, streams[s], opts.Predictor, seqs[s], senders[:n], sizes[:n]); err != nil {
			return events, batches, dups, err
		}
		pos[s] += n
		events += n
		batches++
	}
	if err := c.Flush(ctx); err != nil {
		return events, batches, dups, err
	}
	_, d := c.Acked()
	return events, batches, int64(d), nil
}

// loadGenHTTP drives one HTTP client's share of the load — the baseline
// the wire numbers are compared against.
func loadGenHTTP(ctx context.Context, baseURL string, opts LoadGenOptions, conn, sessions int, budget int64) (events, batches, dups int64, err error) {
	client := NewReplayClient()
	streams := make([]string, sessions)
	seqs := make([]int64, sessions)
	pos := make([]int64, sessions)
	for i := range streams {
		streams[i] = fmt.Sprintf("g%d/%d", conn, i)
	}
	senders := make([]int64, loadGenBlockLen)
	sizes := make([]int64, loadGenBlockLen)
	var body bytes.Buffer
	for s := 0; events < budget; s = (s + 1) % sessions {
		n := int64(loadGenBlockLen)
		if rest := budget - events; rest < n {
			n = rest
		}
		genBlock(senders[:n], sizes[:n], pos[s], loadGenPeriod)
		seqs[s]++
		body.Reset()
		if err := json.NewEncoder(&body).Encode(observeRequest{
			Tenant:    opts.Tenant,
			Stream:    streams[s],
			Predictor: opts.Predictor,
			Seq:       seqs[s],
			Senders:   senders[:n],
			Sizes:     sizes[:n],
		}); err != nil {
			return events, batches, dups, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/observe", bytes.NewReader(body.Bytes()))
		if err != nil {
			return events, batches, dups, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return events, batches, dups, err
		}
		var reply observeReply
		decodeErr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&reply)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return events, batches, dups, fmt.Errorf("observe returned %s", resp.Status)
		}
		if decodeErr != nil {
			return events, batches, dups, decodeErr
		}
		if reply.Duplicate {
			dups++
		}
		pos[s] += n
		events += n
		batches++
	}
	return events, batches, dups, nil
}
