package serve

// The HTTP/JSON face of the registry. Routes:
//
//	POST /v1/observe      {"tenant","stream","events":[{"sender","size"},...]}
//	                      or {"tenant","stream","senders":[...],"sizes":[...]}
//	GET  /v1/predict      ?tenant=&stream=&k=   (k defaults to 5, the paper's horizon)
//	GET  /v1/sessions     list every live session
//	GET  /healthz         liveness + session count
//	GET  /readyz          readiness (503 while draining or before restore)
//	GET  /debug/vars      expvar-style metrics (JSON)
//
// Observe is the hot path: request scratch (decoded events, forecast
// buffers, response encoder) is pooled and reused, so a steady stream of
// observe calls costs the JSON decode plus the registry's zero-allocation
// observe — nothing per-request is rebuilt from scratch.
//
// Every request passes through a small resilience envelope (ServeHTTP):
// a panic recovery that 500s the one failing request instead of killing
// the daemon, a bounded in-flight gate that sheds load with 429 +
// Retry-After instead of queueing unboundedly, and a per-request context
// deadline so an abandoned request cannot pin resources forever. Health
// endpoints bypass the gate — a load balancer probing an overloaded
// server must still get an answer.

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpipredict/internal/buildinfo"
	"mpipredict/internal/strategy"
)

// MaxHorizon bounds the k parameter of predict queries; it exists so a
// client cannot request an unbounded forecast loop.
const MaxHorizon = 64

// DefaultHorizon is the forecast depth when the query omits k — the +1..+5
// horizon the paper evaluates.
const DefaultHorizon = 5

// maxObserveBody bounds an observe request body (1 MiB ≈ 40k events),
// enough for any sane batch while keeping a misbehaving client from
// buffering without limit.
const maxObserveBody = 1 << 20

// maxRestoreBody bounds a /v1/restore snapshot upload (64 MiB). Restores
// are rare administrative operations — a session migration lands here —
// so the bound is generous, but it still exists: restore is the one
// endpoint that legitimately carries megabytes, which makes it the one a
// misbehaving client would pick to exhaust memory through.
const maxRestoreBody = 1 << 26

// DefaultSessionsLimit is the page size of /v1/sessions when the query
// names none. The listing used to be unbounded, which is fine for one
// daemon holding a handful of replayed sessions and pathological for a
// cluster gateway fanning the listing out across N backends each holding
// tens of thousands — the default keeps any single response bounded
// while limit/offset let a caller page through everything.
const DefaultSessionsLimit = 1000

// MaxSessionsLimit caps an explicit limit parameter.
const MaxSessionsLimit = 10000

// MaxKeyLen bounds tenant and stream names accepted by the API. It is
// far below the snapshot format's string limit, so every session the
// service creates is guaranteed to be checkpointable — an unbounded key
// would poison checkpointing for all sessions, not just its own.
const MaxKeyLen = 256

// refusal classifies why an observe is turned away. Both listeners run
// the one rule set, checkObserve, and map its class through their own
// table — observeStatus here, observeCode on the wire — so a request the
// HTTP surface refuses is refused on the wire with the matching code by
// construction.
type refusal uint8

const (
	notRefused      refusal = iota
	refusedBad              // malformed: keys, events, seq or predictor
	refusedConflict         // the session was created with another strategy
)

// observeStatus maps a refusal class to its HTTP status.
var observeStatus = [...]int{refusedBad: http.StatusBadRequest, refusedConflict: http.StatusConflict}

// checkObserve applies the observe refusal rules: tenant and stream
// non-empty and at most MaxKeyLen bytes, at least one event, a
// non-negative seq and, when named, a registered predictor. It is generic
// over the key type so the wire listener checks its decoded byte views
// before interning them, keeping validation ahead of any allocation. The
// one refusal it cannot see, a strategy conflict with an existing
// session, comes from the registry as ErrStrategyMismatch and maps to
// refusedConflict.
func checkObserve[K string | []byte](tenant, stream, predictor K, seq int64, events int) (refusal, string) {
	switch {
	case len(tenant) == 0 || len(tenant) > MaxKeyLen || len(stream) == 0 || len(stream) > MaxKeyLen:
		return refusedBad, fmt.Sprintf("tenant and stream are required and at most %d bytes", MaxKeyLen)
	case events == 0:
		return refusedBad, "events must not be empty"
	case seq < 0:
		return refusedBad, "seq must be non-negative"
	case len(predictor) > 0 && !strategy.Known(string(predictor)):
		return refusedBad, fmt.Sprintf("unknown predictor %q (known: %v)", predictor, strategy.Names())
	}
	return notRefused, ""
}

// DefaultMaxInFlight is the in-flight request bound when
// ServerOptions.MaxInFlight is zero. Requests beyond it are rejected
// with 429 + Retry-After rather than queued: the registry's shard locks
// serialize the real work anyway, so admitting more requests only grows
// memory and tail latency without adding throughput.
const DefaultMaxInFlight = 256

// DefaultRequestTimeout is the per-request context deadline when
// ServerOptions.RequestTimeout is zero.
const DefaultRequestTimeout = 10 * time.Second

// ServerOptions tunes the resilience envelope around the handlers. The
// zero value takes the defaults above; negative values disable the
// corresponding protection (tests use that to exercise handlers bare).
type ServerOptions struct {
	// MaxInFlight bounds concurrently served requests (health endpoints
	// are exempt). Default DefaultMaxInFlight; negative disables.
	MaxInFlight int
	// RequestTimeout is the context deadline attached to each request.
	// Default DefaultRequestTimeout; negative disables.
	RequestTimeout time.Duration
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxInFlight == 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	return o
}

// Server wraps a Registry in an http.Handler.
type Server struct {
	reg   *Registry
	mux   *http.ServeMux
	vars  *expvar.Map
	pool  sync.Pool
	start time.Time
	opts  ServerOptions

	// inflight is the admission semaphore (nil when disabled): a request
	// enters by sending, leaves by receiving. Non-blocking send makes the
	// gate load-shedding, not queueing.
	inflight chan struct{}
	// notReady and draining drive /readyz. Both are "fail readiness"
	// flags so the zero value is ready — a freshly constructed server
	// answers probes until the daemon says otherwise.
	notReady atomic.Bool
	draining atomic.Bool

	recoveredPanics  atomic.Int64
	rejectedOverload atomic.Int64

	// wireAddr, when set, is the companion binary wire listener's
	// address, advertised on /healthz so clients auto-negotiate the
	// faster protocol (empty = HTTP only).
	wireAddr atomic.Value // string
}

// observeRequest is the POST /v1/observe body. Predictor optionally names
// the prediction strategy of the session; it only matters on the request
// that creates the session (the first observe) — afterwards it may be
// omitted, and naming a different strategy than the session's is a
// conflict.
//
// Events may be given in one of two shapes, not both: the object form
// ("events": [{"sender","size"},...]) or the columnar form ("senders"
// and "sizes" as parallel arrays). The columnar form is what the block
// pipeline emits (stream.EventBlock is columnar end to end); the replay
// ingester uses it. The handler copies an object-form body into the
// pooled columns, so both shapes reach the registry through the one
// ingest method, ObserveBlockSeq.
// Seq optionally carries a per-(tenant, stream) monotonic batch
// sequence number. When positive, the registry applies the batch at
// most once: a seq at or below the session's high-water mark is
// acknowledged (with "duplicate":true) but not observed, which lets
// clients retry lost responses without double-counting events. Zero
// means unsequenced — always applied.
type observeRequest struct {
	Tenant    string  `json:"tenant"`
	Stream    string  `json:"stream"`
	Predictor string  `json:"predictor,omitempty"`
	Seq       int64   `json:"seq,omitempty"`
	Events    []Event `json:"events,omitempty"`
	Senders   []int64 `json:"senders,omitempty"`
	Sizes     []int64 `json:"sizes,omitempty"`
}

// Event is one observed message: who sent it and how many bytes it
// carried. It is the element of the object-form "events" body.
type Event struct {
	Sender int64 `json:"sender"`
	Size   int64 `json:"size"`
}

// scratch is the pooled per-request state. The body is slurped into the
// retained byte buffer (a fresh json.Decoder would grow a private buffer
// per request), decoding into the retained Events/Senders/Sizes slices
// reuses their backing arrays, and forecasts are appended into a
// retained buffer — so steady-state requests allocate only what
// encoding/json's Unmarshal itself needs.
type scratch struct {
	req       observeRequest
	body      []byte
	forecasts []Forecast
}

// NewServer returns a Server for the registry with default resilience
// options. The metrics map is owned by the server (not published to the
// process-global expvar namespace), so independent servers — and tests —
// never collide on variable names.
func NewServer(reg *Registry) *Server {
	return NewServerWith(reg, ServerOptions{})
}

// NewServerWith returns a Server with explicit resilience options.
func NewServerWith(reg *Registry, opts ServerOptions) *Server {
	s := &Server{
		reg:   reg,
		mux:   http.NewServeMux(),
		vars:  new(expvar.Map).Init(),
		start: time.Now(),
		opts:  opts.withDefaults(),
	}
	if s.opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, s.opts.MaxInFlight)
	}
	s.pool.New = func() interface{} {
		return &scratch{
			body:      make([]byte, 0, 4096),
			forecasts: make([]Forecast, 0, MaxHorizon),
		}
	}
	// Each counter reads its own atomic directly: routing through
	// reg.Stats() would make every scrape sweep all shard locks (via Len)
	// once per variable, contending with the observe hot path. Only the
	// live-session gauge genuinely needs the shard sweep.
	counter := func(v *atomic.Int64) expvar.Func {
		return func() interface{} { return v.Load() }
	}
	s.vars.Set("sessions", expvar.Func(func() interface{} { return reg.Len() }))
	s.vars.Set("sessions_created", counter(&reg.created))
	s.vars.Set("sessions_restored", counter(&reg.restored))
	s.vars.Set("evicted_lru", counter(&reg.evictedLRU))
	s.vars.Set("evicted_idle", counter(&reg.evictedIdle))
	s.vars.Set("observed_events", counter(&reg.events))
	s.vars.Set("forecast_queries", counter(&reg.forecasts))
	s.vars.Set("missed_lookups", counter(&reg.missed))
	s.vars.Set("duplicate_batches", counter(&reg.dupBatches))
	// Aggregate adaptive-router telemetry: per-strategy rolling hit
	// rates, current leaders and switch counts across every meta session.
	// Computed on scrape — /debug/vars is cold path, observes stay free.
	s.vars.Set("meta", expvar.Func(func() interface{} { return reg.MetaStats() }))
	s.vars.Set("recovered_panics", counter(&s.recoveredPanics))
	s.vars.Set("rejected_overload", counter(&s.rejectedOverload))
	s.vars.Set("uptime_seconds", expvar.Func(func() interface{} {
		return time.Since(s.start).Seconds()
	}))
	// The build identity, so a cluster gateway (or an operator with curl)
	// can check that every backend runs the same binary before trusting
	// them to interpret snapshots and wire formats identically.
	s.vars.Set("buildinfo", expvar.Func(func() interface{} { return buildinfo.Get() }))
	s.mux.HandleFunc("/v1/observe", s.handleObserve)
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/sessions", s.handleSessions)
	s.mux.HandleFunc("/v1/restore", s.handleRestore)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/vars", s.handleVars)
	return s
}

// SetReady marks the server ready (or not) to take traffic. A server
// starts ready; a daemon restoring a large snapshot flips it false
// before listening and true once restore completes, so load balancers
// do not route to a half-restored instance.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// SetDraining marks the server as shutting down: /readyz starts failing
// so load balancers stop routing new work, while in-flight and
// straggler requests still complete normally. Draining is one-way; a
// draining server is expected to exit.
func (s *Server) SetDraining() { s.draining.Store(true) }

// PublishVar adds a computed metric to the server's /debug/vars map under
// the given name, evaluated on every scrape. The daemon uses it to surface
// process-level state the registry does not own — e.g. the shared trace
// cache's hit/miss and disk-tier counters.
func (s *Server) PublishVar(name string, fn func() interface{}) {
	s.vars.Set(name, expvar.Func(fn))
}

// ServeHTTP implements http.Handler: the resilience envelope around the
// mux. Order matters — recovery is outermost so a panic anywhere inside
// (including the gate) turns into a 500, and the gate runs before the
// deadline so shed requests cost no timer.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				// Deliberate connection abort (e.g. chaos middleware);
				// net/http suppresses the stack trace for this sentinel.
				panic(v)
			}
			s.recoveredPanics.Add(1)
			// Best effort: if the handler already wrote a header this
			// appends to a half-sent reply, which the client will reject.
			writeError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	if s.inflight != nil && !isHealthPath(r.URL.Path) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.rejectedOverload.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server at capacity (%d requests in flight)", s.opts.MaxInFlight)
			return
		}
	}
	if s.opts.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// isHealthPath exempts probe endpoints from the in-flight gate: a load
// balancer must be able to see an overloaded-but-alive server.
func isHealthPath(p string) bool { return p == "/healthz" || p == "/readyz" }

// writeError emits a JSON error body with the given status. The message
// is encoded with encoding/json, not %q: Go's quoting emits \xNN escapes
// for invalid UTF-8 (possible in client-supplied tenant/stream names),
// which is not legal JSON.
func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg, err := json.Marshal(fmt.Sprintf(format, args...))
	if err != nil {
		msg = []byte(`"internal error"`)
	}
	fmt.Fprintf(w, "{\"error\":%s}\n", msg)
}

// appendAll reads r to EOF into buf, reusing (and keeping) its backing
// array — io.ReadAll with a caller-owned buffer, for pooled scratch.
func appendAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "observe requires POST")
		return
	}
	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	sc.req.Tenant = ""
	sc.req.Stream = ""
	sc.req.Predictor = ""
	sc.req.Seq = 0
	// Zero the whole backing array, not just the length: the decoder
	// reuses pooled elements in place and only assigns the JSON keys
	// actually present, so an event omitting "sender" or "size" would
	// otherwise inherit whatever a previous request left at that index.
	sc.req.Events = sc.req.Events[:cap(sc.req.Events)]
	clear(sc.req.Events)
	sc.req.Events = sc.req.Events[:0]
	sc.req.Senders = sc.req.Senders[:0]
	sc.req.Sizes = sc.req.Sizes[:0]

	// MaxBytesReader (unlike a bare LimitReader) closes the connection
	// on overrun and lets the overflow be told apart from malformed
	// JSON, so oversized bodies get the honest 413.
	var err error
	sc.body, err = appendAll(sc.body[:0], http.MaxBytesReader(w, r.Body, maxObserveBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "observe body exceeds %d bytes", maxObserveBody)
			return
		}
		if ctxErr := r.Context().Err(); ctxErr != nil {
			// The body read outlived the request deadline (or the client
			// went away); the status is best-effort — a disconnected
			// client never sees it.
			writeError(w, http.StatusServiceUnavailable, "request deadline exceeded reading body: %v", ctxErr)
			return
		}
		writeError(w, http.StatusBadRequest, "reading observe request: %v", err)
		return
	}
	if err := json.Unmarshal(sc.body, &sc.req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding observe request: %v", err)
		return
	}
	req := &sc.req
	if len(req.Events) > 0 {
		if len(req.Senders) > 0 || len(req.Sizes) > 0 {
			writeError(w, http.StatusBadRequest, "give events either as objects or as senders/sizes columns, not both")
			return
		}
		for _, ev := range req.Events {
			req.Senders = append(req.Senders, ev.Sender)
			req.Sizes = append(req.Sizes, ev.Size)
		}
	} else if len(req.Senders) != len(req.Sizes) {
		writeError(w, http.StatusBadRequest, "senders and sizes must be the same length (%d != %d)", len(req.Senders), len(req.Sizes))
		return
	}
	if class, msg := checkObserve(req.Tenant, req.Stream, req.Predictor, req.Seq, len(req.Senders)); class != notRefused {
		writeError(w, observeStatus[class], "%s", msg)
		return
	}
	total, duplicate, err := s.reg.ObserveBlockSeq(req.Tenant, req.Stream, req.Predictor, req.Seq, req.Senders, req.Sizes)
	if err != nil {
		// checkObserve leaves only a strategy conflict to the registry.
		writeError(w, observeStatus[refusedConflict], "%v", err)
		return
	}
	n := len(req.Senders)
	if duplicate {
		// The batch was already applied by an earlier delivery; this is a
		// positive ack of that fact, not an error — the retrying client
		// treats it exactly like a success.
		n = 0
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"observed\":%d,\"session_observed\":%d,\"duplicate\":%t}\n", n, total, duplicate)
}

// predictResponse is the GET /v1/predict body.
type predictResponse struct {
	Tenant    string     `json:"tenant"`
	Stream    string     `json:"stream"`
	Observed  int64      `json:"observed"`
	Forecasts []Forecast `json:"forecasts"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "predict requires GET")
		return
	}
	q := r.URL.Query()
	tenant, stream := q.Get("tenant"), q.Get("stream")
	if tenant == "" || stream == "" {
		writeError(w, http.StatusBadRequest, "tenant and stream are required")
		return
	}
	k := DefaultHorizon
	if raw := q.Get("k"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 || parsed > MaxHorizon {
			writeError(w, http.StatusBadRequest, "k must be an integer in 1..%d", MaxHorizon)
			return
		}
		k = parsed
	}
	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	forecasts, observed, ok := s.reg.ForecastInto(sc.forecasts[:0], tenant, stream, k)
	sc.forecasts = forecasts[:0]
	if !ok {
		writeError(w, http.StatusNotFound, "no session for tenant %q stream %q", tenant, stream)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(predictResponse{
		Tenant:    tenant,
		Stream:    stream,
		Observed:  observed,
		Forecasts: forecasts,
	})
}

// SessionsResponse is the GET /v1/sessions body: one bounded page of the
// canonical (tenant, stream)-sorted listing plus enough envelope (total,
// offset, limit) for a caller — or a cluster gateway merging N of these —
// to page through the rest.
type SessionsResponse struct {
	Sessions []SessionInfo `json:"sessions"`
	Total    int           `json:"total"`
	Offset   int           `json:"offset"`
	Limit    int           `json:"limit"`
}

// queryInt parses an optional non-negative integer query parameter,
// returning def when absent.
func queryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer", name)
	}
	return v, nil
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "sessions requires GET")
		return
	}
	limit, err := queryInt(r, "limit", DefaultSessionsLimit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if limit == 0 || limit > MaxSessionsLimit {
		writeError(w, http.StatusBadRequest, "limit must be in 1..%d", MaxSessionsLimit)
		return
	}
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	page, total := s.reg.SessionsPage(offset, limit)
	if page == nil {
		page = []SessionInfo{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SessionsResponse{
		Sessions: page,
		Total:    total,
		Offset:   offset,
		Limit:    limit,
	})
}

// handleRestore ingests a predictor snapshot stream (the .mps format of
// snapshot.go) and restores its sessions into the live registry,
// replacing same-key sessions. It is the receiving half of a cluster
// session migration: a drained backend's checkpoint is partitioned by
// the new shard map and each part is POSTed here on its new owner. The
// whole body is validated — framing, CRC trailer and per-strategy state
// — before any session is touched, so a corrupt upload restores nothing
// rather than half of itself.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "restore requires POST")
		return
	}
	// The declared length gives the honest 413 up front; MaxBytesReader
	// still bounds chunked uploads that declare nothing (their overrun
	// surfaces as a decode failure, which is still a refusal).
	if r.ContentLength > maxRestoreBody {
		writeError(w, http.StatusRequestEntityTooLarge, "restore body exceeds %d bytes", maxRestoreBody)
		return
	}
	sessions, err := ReadSnapshot(http.MaxBytesReader(w, r.Body, maxRestoreBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding snapshot: %v", err)
		return
	}
	if err := s.reg.RestoreSessions(sessions); err != nil {
		writeError(w, http.StatusBadRequest, "restoring sessions: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"restored\":%d}\n", len(sessions))
}

// SetWireAddr records the companion wire listener's address for
// /healthz advertisement. The wire server calls it when it starts
// serving; tests and daemons may also set it explicitly.
func (s *Server) SetWireAddr(addr string) { s.wireAddr.Store(addr) }

// WireAddr returns the advertised wire listener address ("" = none).
func (s *Server) WireAddr() string {
	v, _ := s.wireAddr.Load().(string)
	return v
}

// handleHealthz is pure liveness: it answers ok for as long as the
// process can serve HTTP at all, even while draining — a live-but-
// draining server must not be restarted by an orchestrator. When a
// binary wire listener runs alongside, its address rides in "wire" so
// clients probing the HTTP surface can upgrade.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if wa := s.WireAddr(); wa != "" {
		fmt.Fprintf(w, "{\"status\":\"ok\",\"sessions\":%d,\"uptime_s\":%.1f,\"wire\":%q}\n",
			s.reg.Len(), time.Since(s.start).Seconds(), wa)
		return
	}
	fmt.Fprintf(w, "{\"status\":\"ok\",\"sessions\":%d,\"uptime_s\":%.1f}\n",
		s.reg.Len(), time.Since(s.start).Seconds())
}

// handleReadyz is readiness: whether a load balancer should route new
// traffic here. It fails before a snapshot restore completes (SetReady)
// and from the moment a drain starts (SetDraining), so routing stops
// before the listener does.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
	case s.notReady.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"starting"}`)
	default:
		fmt.Fprintln(w, `{"status":"ready"}`)
	}
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.vars.String())
}
