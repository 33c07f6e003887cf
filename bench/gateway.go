package main

// gateway-markov1: the mpigateway handler (cluster.NewGateway on a real
// listener) over three mpipredictd backends (serve.NewServer) on
// loopback, HTTP/JSON, strategy markov1. markov1 costs about 10 ns per
// event, so the work is JSON decoding, the gateway→backend HTTP hop and
// the registry: a dpd change must not move this workload. It has many
// small sessions and a 1:1 read:write mix.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"mpipredict/internal/cluster"
	"mpipredict/internal/core"
	"mpipredict/internal/serve"
	"mpipredict/internal/strategy"
)

const (
	gwStrategy   = "markov1"
	gwBackends   = 3
	gwStepEvents = 8 // events per observe request
	gwHorizon    = 5 // forecasts per predict request
	// gwOpenRate is Phase B's fixed schedule in requests per second,
	// about a quarter of the closed-loop rate on the reference host.
	gwOpenRate = 5000.0
	// gwOwnerBatch is how many ShardMap.Owner calls one span times: one
	// call is too short to time alone.
	gwOwnerBatch = 64
)

// httpStack is one in-process HTTP server on loopback.
type httpStack struct {
	srv  *http.Server
	ln   net.Listener
	done chan error
	url  string
}

func startHTTP(h http.Handler) (*httpStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpStack{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *httpStack) close() {
	s.srv.Close()
	<-s.done
}

// gwCluster is the system under test: three backends and the gateway.
type gwCluster struct {
	regs     []*serve.Registry
	backends []*httpStack
	gw       *cluster.Gateway
	gwClient *http.Client // the gateway's backend client
	front    *httpStack
}

func startCluster() (*gwCluster, error) {
	c := &gwCluster{gwClient: serve.NewReplayClient()}
	urls := make([]string, gwBackends)
	for i := range urls {
		reg := serve.NewRegistry(serve.Config{Strategy: gwStrategy})
		b, err := startHTTP(serve.NewServer(reg))
		if err != nil {
			c.close()
			return nil, err
		}
		c.regs = append(c.regs, reg)
		c.backends = append(c.backends, b)
		urls[i] = b.url
	}
	shards, err := cluster.NewShardMap(urls)
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = cluster.NewGateway(shards, cluster.Options{Client: c.gwClient})
	if c.front, err = startHTTP(c.gw); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *gwCluster) close() {
	if c.front != nil {
		c.front.close()
	}
	for _, b := range c.backends {
		b.close()
	}
	c.gwClient.CloseIdleConnections()
}

// gwWorker is one load connection. It owns a fixed share of the sessions
// and steps through them round-robin; a step is an observe of the
// session's next events followed by a predict for the same session, so
// each session's requests stay in order.
type gwWorker struct {
	client *http.Client
	base   string
	sched  *roundRobin
	steps  int // steps completed

	body    []byte
	snd, sz []int64
	cur     *session // session of the last observe body
}

func newWorkers(front string, sessions []session, n int) []*gwWorker {
	ws := make([]*gwWorker, n)
	for w := range ws {
		ws[w] = &gwWorker{
			client: &http.Client{
				Timeout:   10 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			},
			base:  front,
			sched: &roundRobin{chunk: gwStepEvents},
		}
	}
	for i := range sessions {
		w := ws[i%n]
		w.sched.sessions = append(w.sched.sessions, &sessions[i])
	}
	return ws
}

func (w *gwWorker) close() { w.client.CloseIdleConnections() }

// observeBody encodes step k's columnar observe body.
func (w *gwWorker) observeBody(k int) []byte {
	var s *session
	var seq int64
	s, seq, w.snd, w.sz = w.sched.events(k, w.snd, w.sz)
	w.cur = s
	b := append(w.body[:0], `{"tenant":"`...)
	b = append(b, s.tenant...)
	b = append(b, `","stream":"`...)
	b = append(b, s.stream...)
	b = append(b, `","seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = appendInts(append(b, `,"senders":`...), w.snd)
	b = appendInts(append(b, `,"sizes":`...), w.sz)
	w.body = append(b, '}')
	return w.body
}

func appendInts(b []byte, xs []int64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

func predictPath(s *session) string {
	return "/v1/predict?" + url.Values{"tenant": {s.tenant}, "stream": {s.stream}, "k": {strconv.Itoa(gwHorizon)}}.Encode()
}

// request performs request r of the worker's sequence: even requests
// observe step r/2, odd ones predict for the same session.
func (w *gwWorker) request(ctx context.Context, r int) error {
	var req *http.Request
	var err error
	if r%2 == 0 {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/observe", bytes.NewReader(w.observeBody(r/2)))
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.base+predictPath(w.cur), nil)
	}
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	if r%2 == 1 {
		w.steps++
	}
	return nil
}

// gwLoad is one phase's outcome over all workers.
type gwLoad struct {
	requests  int64
	elapsed   time.Duration // closed loop only
	rates     []*rateMeter  // completed requests per worker, closed loop only
	attempted int64
	failed    int64
	lat, late []float64 // ms, open loop only
}

// closedLoop has every worker send its next request as soon as the
// previous one answered, for d.
func closedLoop(ctx context.Context, ws []*gwWorker, d time.Duration) (gwLoad, error) {
	var out gwLoad
	counts := make([]int64, len(ws))
	errs := make([]error, len(ws))
	start := time.Now()
	var wg sync.WaitGroup
	for i, w := range ws {
		m := &rateMeter{start: start}
		out.rates = append(out.rates, m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 2 * w.steps; ; r++ {
				now := time.Now()
				m.observe(now, counts[i])
				if now.Sub(start) >= d && r%2 == 0 {
					return
				}
				if errs[i] = w.request(ctx, r); errs[i] != nil {
					return
				}
				counts[i]++
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	for i := range ws {
		out.requests += counts[i]
		out.attempted += counts[i]
		if errs[i] != nil {
			out.attempted++
			out.failed++
			return out, errs[i]
		}
	}
	return out, nil
}

// openLoop gives every worker a fixed schedule: together they send rate
// requests per second for d, each timed from its due time. A worker that
// wakes sends every request already due, one after another, before it
// sleeps again.
func openLoop(ctx context.Context, ws []*gwWorker, d time.Duration, rate float64) (gwLoad, error) {
	var out gwLoad
	perWorker := int(d.Seconds() * rate / float64(len(ws)))
	perWorker -= perWorker % 2 // whole steps
	lat := make([][]float64, len(ws))
	late := make([][]float64, len(ws))
	errs := make([]error, len(ws))
	start := time.Now()
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := 2 * w.steps
			for j := 0; j < perWorker; j++ {
				due := start.Add(time.Duration(float64(len(ws)*j+i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late[i] = append(late[i], ms(time.Since(due)))
				if errs[i] = w.request(ctx, first+j); errs[i] != nil {
					return
				}
				lat[i] = append(lat[i], ms(time.Since(due)))
			}
		}()
	}
	wg.Wait()
	out.attempted = int64(perWorker * len(ws))
	for i := range ws {
		out.requests += int64(len(lat[i]))
		out.lat = append(out.lat, lat[i]...)
		out.late = append(out.late, late[i]...)
	}
	for _, err := range errs {
		if err != nil {
			// The failed request and every one the schedule still held.
			out.failed = out.attempted - out.requests
			return out, err
		}
	}
	return out, nil
}

type gwEnv struct {
	sessions []session
	cl       *gwCluster
}

func runGateway(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	env, err := timedSetups(rep, func() (*gwEnv, error) {
		grid, err := gridStreams("", []int64{p.seed}, p.sizes.iterations, p.workers)
		if err != nil {
			return nil, err
		}
		sessions := make([]session, 0, p.sizes.gwTenants*len(grid))
		for t := 0; t < p.sizes.gwTenants; t++ {
			for _, s := range grid {
				s.tenant = fmt.Sprintf("t%02d", t)
				sessions = append(sessions, s)
			}
		}
		cl, err := startCluster()
		if err != nil {
			return nil, err
		}
		return &gwEnv{sessions: sessions, cl: cl}, nil
	}, func(e *gwEnv) { e.cl.close() })
	if err != nil {
		return nil, err
	}
	defer env.cl.close()
	ws := newWorkers(env.cl.front.url, env.sessions, p.workers)
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()
	rep.note("sessions=%d (%d tenants × %d grid streams), %d backends, %d connections",
		len(env.sessions), p.sizes.gwTenants, len(env.sessions)/p.sizes.gwTenants, gwBackends, len(ws))

	// Without a warm-up the closed-loop rate drifts while connections,
	// pools and sessions fill.
	warm, err := closedLoop(ctx, ws, p.sizes.gwWarmup)
	rep.ops(warm.attempted, warm.failed)
	if err != nil {
		rep.problem("warm-up: %v", err)
		return rep, nil
	}

	phase := p.seconds / 2
	if p.trace {
		phase = p.seconds / 4
	}
	before := readMem()
	a, err := closedLoop(ctx, ws, phase)
	after := readMem()
	rep.ops(a.attempted, a.failed)
	if err != nil {
		rep.problem("phase A: %v", err)
		return rep, nil
	}
	// A step is an observe of gwStepEvents events and a predict.
	eps := setRate(rep, "events_per_s", gwStepEvents/2, a.rates...)
	rep.note("phase A: %d requests in %.3f s, %.1f requests/s in the median window (closed loop)",
		a.requests, a.elapsed.Seconds(), 2*eps/gwStepEvents)
	setRuntimeLayer(rep, before, after, int(a.requests))

	if p.trace {
		if err := gwLayers(rep, env.cl, ws[0], p.sizes); err != nil {
			return nil, err
		}
	}

	b, err := openLoop(ctx, ws, phase, gwOpenRate)
	rep.ops(b.attempted, b.failed)
	if err != nil {
		rep.problem("phase B: %v", err)
		return rep, nil
	}
	setLatency(rep, "phase B request due→response", summarize(b.lat))
	late := summarize(b.late)
	rep.set("gen.late_p50_ms", late.p50, late.n)
	rep.set("gen.late_max_ms", late.max, late.n)
	rep.note("phase B: %d requests, open loop at %.0f requests/s; generator late p50=%.4f ms max=%.4f ms",
		b.requests, gwOpenRate, late.p50, late.max)
	rep.set("max_rss_mb", maxRSSMiB(), 1)

	return rep, gwCheckForecasts(ctx, rep, ws, env.sessions)
}

// gwCheckForecasts asks the gateway for every session's +1..+5 forecast
// and compares it with a reference registry fed the same steps in
// process.
func gwCheckForecasts(ctx context.Context, rep *report, ws []*gwWorker, sessions []session) error {
	ref := serve.NewRegistry(serve.Config{Strategy: gwStrategy})
	for _, w := range ws {
		feedRegistry(ref, w.sched, 0, w.steps, 1)
	}
	client := ws[0].client
	mismatches := 0
	for i := range sessions {
		s := &sessions[i]
		want, observed, found := ref.ForecastInto(nil, s.tenant, s.stream, gwHorizon)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws[0].base+predictPath(s), nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("checking %s/%s: %w", s.tenant, s.stream, err)
		}
		var got struct {
			Observed  int64            `json:"observed"`
			Forecasts []serve.Forecast `json:"forecasts"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		switch {
		case !found && resp.StatusCode == http.StatusNotFound:
		case !found || resp.StatusCode != http.StatusOK || err != nil:
			mismatches++
		case got.Observed != observed || !slices.Equal(got.Forecasts, want):
			mismatches++
		}
	}
	if mismatches > 0 {
		rep.problem("%d of %d sessions forecast differently through the gateway than the reference registry", mismatches, len(sessions))
	}
	return nil
}

// gwShadow mirrors the cluster's state for the layer replay: a backend
// server, a bare registry and bare strategies, each restored from the
// backends' sessions.
type gwShadow struct {
	srv        *serve.Server
	reg        *serve.Registry
	strategies map[[2]string][2]strategy.Strategy
}

func newGWShadow(cl *gwCluster) (*gwShadow, error) {
	var snap []serve.SessionSnapshot
	for _, reg := range cl.regs {
		snap = append(snap, reg.SnapshotSessions()...)
	}
	srvReg := serve.NewRegistry(serve.Config{Strategy: gwStrategy})
	reg := serve.NewRegistry(serve.Config{Strategy: gwStrategy})
	for _, r := range []*serve.Registry{srvReg, reg} {
		if err := r.RestoreSessions(snap); err != nil {
			return nil, err
		}
	}
	sh := &gwShadow{srv: serve.NewServer(srvReg), reg: reg, strategies: map[[2]string][2]strategy.Strategy{}}
	for _, s := range snap {
		snd, err := strategy.Restore(s.Strategy, s.Sender)
		if err != nil {
			return nil, err
		}
		sz, err := strategy.Restore(s.Strategy, s.Size)
		if err != nil {
			return nil, err
		}
		sh.strategies[[2]string{s.Tenant, s.Stream}] = [2]strategy.Strategy{snd, sz}
	}
	return sh, nil
}

func (sh *gwShadow) strategiesOf(s *session) [2]strategy.Strategy {
	k := [2]string{s.tenant, s.stream}
	if _, ok := sh.strategies[k]; !ok {
		a, _ := strategy.New(gwStrategy, core.Config{})
		b, _ := strategy.New(gwStrategy, core.Config{})
		sh.strategies[k] = [2]strategy.Strategy{a, b}
	}
	return sh.strategies[k]
}

// gwLayers continues worker w's schedule for the layer replay: steps go
// through Gateway.ServeHTTP via recorders to the real backends, and the
// same requests into a shadow backend handler, a shadow registry and
// shadow strategies. It then measures allocations per request of the
// gateway and the backend handler.
func gwLayers(rep *report, cl *gwCluster, w *gwWorker, sz sizes) error {
	t, err := tracedReplays(rep, overheadPairs, func(t *tracer) error { return gwReplay(cl, w, sz.replaySteps, t) })
	if err != nil {
		return err
	}

	tt := totals(t.spans)
	owner := total(tt, "cluster.owner")
	gwObs, gwPred := total(tt, "cluster.gateway_observe"), total(tt, "cluster.gateway_predict")
	httpObs, httpPred := total(tt, "serve.http_observe"), total(tt, "serve.http_predict")
	block, forecast := total(tt, "serve.observe_block"), total(tt, "serve.forecast")
	obs, pred := total(tt, "strategy.observe"), total(tt, "strategy.predict")
	requests := gwObs.spans + gwPred.spans
	rep.set("cluster.owner_ns", owner.perCall(), owner.calls)
	rep.set("cluster.gateway_observe_ns", gwObs.perSpan(), gwObs.spans)
	rep.set("cluster.gateway_predict_ns", gwPred.perSpan(), gwPred.spans)
	rep.set("cluster.hop_ns", (gwObs.dur+gwPred.dur-httpObs.dur-httpPred.dur)/float64(max(requests, 1)), requests)
	rep.set("serve.http_observe_ns", httpObs.perSpan(), httpObs.spans)
	rep.set("serve.http_predict_ns", httpPred.perSpan(), httpPred.spans)
	rep.set("serve.http_self_ns", (httpObs.self+httpPred.self)/float64(max(requests, 1)), requests)
	rep.set("serve.observe_block_ns_per_event", block.dur/float64(max(block.calls, 1)), block.calls)
	rep.set("serve.registry_self_ns_per_event", block.self/float64(max(block.calls, 1)), block.calls)
	rep.set("serve.forecast_ns", forecast.perSpan(), forecast.spans)
	rep.set("strategy.observe_ns", obs.perCall(), obs.calls)
	rep.set("strategy.predict_ns", pred.perCall(), pred.calls)
	rep.set("strategy.calls", float64(obs.calls+pred.calls), 1)
	rep.note("strategy.observe_ns × %d events per request / cluster.gateway_observe_ns: %.5f",
		gwStepEvents, obs.perCall()*gwStepEvents/max(gwObs.perSpan(), 1))

	gwAllocs, srvAllocs, err := gwAllocPasses(cl, w, sz.allocSteps)
	if err != nil {
		return err
	}
	rep.set("cluster.gateway_allocs", gwAllocs, 2*sz.allocSteps)
	rep.set("serve.http_allocs", srvAllocs, 2*sz.allocSteps)
	return nil
}

// serveRecorded runs one request through a handler via a recorder.
func serveRecorded(h http.Handler, method, target string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, target, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// gwReplay runs k more steps of worker w through the gateway handler and
// the shadows.
func gwReplay(cl *gwCluster, w *gwWorker, k int, t *tracer) error {
	sh, err := newGWShadow(cl)
	if err != nil {
		return err
	}
	shards := cl.gw.ShardMap()
	forecasts := make([]serve.Forecast, 0, gwHorizon)
	for i := 0; i < k; i++ {
		step := w.steps
		req := int64(step)
		body := w.observeBody(step)
		s := w.cur
		_, seq, _ := w.sched.at(step)
		path := predictPath(s)
		strats := sh.strategiesOf(s)

		root := t.begin("step", -1, req, 0)
		id := t.begin("cluster.owner", root, req, gwOwnerBatch)
		for j := 0; j < gwOwnerBatch; j++ {
			shards.Owner(s.tenant, s.stream)
		}
		t.end(id)

		id = t.begin("cluster.gateway_observe", root, req, 1)
		err := serveRecorded(cl.gw, http.MethodPost, "/v1/observe", body)
		t.end(id)
		if err != nil {
			return err
		}
		hid := t.shadow("serve.http_observe", id, req, 1)
		err = serveRecorded(sh.srv, http.MethodPost, "/v1/observe", body)
		t.end(hid)
		if err != nil {
			return err
		}
		rid := t.shadow("serve.observe_block", hid, req, len(w.snd))
		_, _, err = sh.reg.ObserveBlockSeq(s.tenant, s.stream, "", seq, w.snd, w.sz)
		t.end(rid)
		if err != nil {
			return err
		}
		sid := t.shadow("strategy.observe", rid, req, 2*len(w.snd))
		for j := range w.snd {
			strats[0].Observe(w.snd[j])
			strats[1].Observe(w.sz[j])
		}
		t.end(sid)

		id = t.begin("cluster.gateway_predict", root, req, 1)
		err = serveRecorded(cl.gw, http.MethodGet, path, nil)
		t.end(id)
		if err != nil {
			return err
		}
		hid = t.shadow("serve.http_predict", id, req, 1)
		err = serveRecorded(sh.srv, http.MethodGet, path, nil)
		t.end(hid)
		if err != nil {
			return err
		}
		rid = t.shadow("serve.forecast", hid, req, 1)
		sh.reg.ForecastInto(forecasts[:0], s.tenant, s.stream, gwHorizon)
		t.end(rid)
		sid = t.shadow("strategy.predict", rid, req, 2*gwHorizon)
		for ahead := 1; ahead <= gwHorizon; ahead++ {
			strats[0].Predict(ahead)
			strats[1].Predict(ahead)
		}
		t.end(sid)
		t.end(root)
		w.steps++
	}
	return nil
}

// gwAllocPasses continues worker w for k steps through the gateway
// handler alone, then feeds the same requests to a shadow backend
// handler alone, and returns the heap allocations per request of each.
// The gateway's count covers the whole process, backends included.
func gwAllocPasses(cl *gwCluster, w *gwWorker, k int) (gateway, backend float64, err error) {
	sh, err := newGWShadow(cl)
	if err != nil {
		return 0, 0, err
	}
	first := w.steps
	bodies := make([][]byte, k)
	paths := make([]string, k)
	for i := range bodies {
		bodies[i] = append([]byte(nil), w.observeBody(first+i)...)
		paths[i] = predictPath(w.cur)
	}
	pass := func(h http.Handler) (float64, error) {
		before := readMem()
		for i := range bodies {
			if err := serveRecorded(h, http.MethodPost, "/v1/observe", bodies[i]); err != nil {
				return 0, err
			}
			if err := serveRecorded(h, http.MethodGet, paths[i], nil); err != nil {
				return 0, err
			}
		}
		after := readMem()
		return float64(after.mallocs-before.mallocs) / float64(2*k), nil
	}
	if gateway, err = pass(cl.gw); err != nil {
		return 0, 0, err
	}
	w.steps += k
	backend, err = pass(sh.srv)
	return gateway, backend, err
}
