package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpipredict/internal/core"
	"mpipredict/internal/strategy"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(NewRegistry(Config{}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.String()
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.String()
}

// decodeVars parses a /debug/vars body into its numeric metrics. The map
// is scalar except for the composite "meta" router telemetry, which
// callers decode separately when they care.
func decodeVars(t *testing.T, body string) map[string]float64 {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatalf("metrics are not a JSON object: %v\n%s", err, body)
	}
	vars := make(map[string]float64, len(raw))
	for name, msg := range raw {
		var v float64
		if err := json.Unmarshal(msg, &v); err == nil {
			vars[name] = v
		}
	}
	return vars
}

func TestServerObservePredictEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	// Feed a periodic stream in batches, exactly as the replay ingester
	// would.
	n := 4 * core.DefaultConfig().WindowSize
	batch := 128
	for i := 0; i < n; i += batch {
		var events []string
		for j := i; j < i+batch && j < n; j++ {
			events = append(events, fmt.Sprintf(`{"sender":%d,"size":%d}`, j%6, 100*(j%6)))
		}
		body := fmt.Sprintf(`{"tenant":"bt.4","stream":"r1/physical","events":[%s]}`, strings.Join(events, ","))
		resp, out := postJSON(t, ts.URL+"/v1/observe", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe returned %s: %s", resp.Status, out)
		}
	}

	resp, out := get(t, ts.URL+"/v1/predict?tenant=bt.4&stream=r1/physical&k=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict returned %s: %s", resp.Status, out)
	}
	var pr predictResponse
	if err := json.Unmarshal([]byte(out), &pr); err != nil {
		t.Fatalf("decoding predict response: %v\n%s", err, out)
	}
	if pr.Observed != int64(n) || len(pr.Forecasts) != 5 {
		t.Fatalf("predict response: observed=%d forecasts=%d, want %d and 5", pr.Observed, len(pr.Forecasts), n)
	}
	next := int64(n % 6)
	for i, f := range pr.Forecasts {
		want := (next + int64(i)) % 6
		if !f.OK || f.Sender != want || f.Size != 100*want {
			t.Fatalf("forecast %d = %+v, want sender %d size %d", i, f, want, 100*want)
		}
	}
}

func TestServerPredictDefaultsToPaperHorizon(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/observe", `{"tenant":"t","stream":"s","events":[{"sender":1,"size":2}]}`)
	_, out := get(t, ts.URL+"/v1/predict?tenant=t&stream=s")
	var pr predictResponse
	if err := json.Unmarshal([]byte(out), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Forecasts) != DefaultHorizon {
		t.Fatalf("default horizon produced %d forecasts, want %d", len(pr.Forecasts), DefaultHorizon)
	}
}

func TestServerErrorCases(t *testing.T) {
	_, ts := newTestServer(t)
	tests := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"observe wrong method", http.MethodGet, "/v1/observe", "", http.StatusMethodNotAllowed},
		{"observe bad json", http.MethodPost, "/v1/observe", "{", http.StatusBadRequest},
		{"observe missing key", http.MethodPost, "/v1/observe", `{"events":[{"sender":1,"size":2}]}`, http.StatusBadRequest},
		{"observe empty events", http.MethodPost, "/v1/observe", `{"tenant":"t","stream":"s","events":[]}`, http.StatusBadRequest},
		{"predict wrong method", http.MethodPost, "/v1/predict", "{}", http.StatusMethodNotAllowed},
		{"predict missing key", http.MethodGet, "/v1/predict?k=3", "", http.StatusBadRequest},
		{"predict bad k", http.MethodGet, "/v1/predict?tenant=t&stream=s&k=zero", "", http.StatusBadRequest},
		{"predict k too large", http.MethodGet, fmt.Sprintf("/v1/predict?tenant=t&stream=s&k=%d", MaxHorizon+1), "", http.StatusBadRequest},
		{"predict unknown session", http.MethodGet, "/v1/predict?tenant=no&stream=nope", "", http.StatusNotFound},
		{"sessions wrong method", http.MethodPost, "/v1/sessions", "{}", http.StatusMethodNotAllowed},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(tt.method, ts.URL+tt.path, strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tt.status {
				t.Fatalf("status = %s, want %d", resp.Status, tt.status)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error responses must carry a JSON error body (err=%v)", err)
			}
		})
	}
}

func TestServerSessionsListing(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/observe", `{"tenant":"b","stream":"s","events":[{"sender":1,"size":2}]}`)
	postJSON(t, ts.URL+"/v1/observe", `{"tenant":"a","stream":"s","events":[{"sender":1,"size":2},{"sender":2,"size":4}]}`)

	_, out := get(t, ts.URL+"/v1/sessions")
	var listing struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(out), &listing); err != nil {
		t.Fatalf("decoding sessions listing: %v\n%s", err, out)
	}
	if len(listing.Sessions) != 2 {
		t.Fatalf("got %d sessions, want 2", len(listing.Sessions))
	}
	if listing.Sessions[0].Tenant != "a" || listing.Sessions[0].Observed != 2 {
		t.Fatalf("first session = %+v, want tenant a with 2 events", listing.Sessions[0])
	}
}

func TestServerSessionsEmptyListIsJSON(t *testing.T) {
	_, ts := newTestServer(t)
	_, out := get(t, ts.URL+"/v1/sessions")
	want := fmt.Sprintf(`{"sessions":[],"total":0,"offset":0,"limit":%d}`, DefaultSessionsLimit)
	if strings.TrimSpace(out) != want {
		t.Fatalf("empty listing = %q, want %q", out, want)
	}
}

func TestServerHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %s", resp.Status)
	}
	var h struct {
		Status   string  `json:"status"`
		Sessions int     `json:"sessions"`
		Uptime   float64 `json:"uptime_s"`
	}
	if err := json.Unmarshal([]byte(out), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status = %q", h.Status)
	}
}

func TestServerExpvarMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/observe", `{"tenant":"t","stream":"s","events":[{"sender":1,"size":2}]}`)
	get(t, ts.URL+"/v1/predict?tenant=t&stream=s")

	_, out := get(t, ts.URL+"/debug/vars")
	vars := decodeVars(t, out)
	if vars["sessions"] != 1 || vars["observed_events"] != 1 || vars["forecast_queries"] != 1 {
		t.Fatalf("unexpected metrics: %v", vars)
	}
	if vars["uptime_seconds"] < 0 {
		t.Fatal("uptime went backwards")
	}
}

// TestServerMultipleInstancesDoNotCollide guards the decision to keep the
// metrics map server-owned instead of in the process-global expvar
// namespace, where a second instance would panic on duplicate names.
func TestServerMultipleInstancesDoNotCollide(t *testing.T) {
	a := NewServer(NewRegistry(Config{}))
	b := NewServer(NewRegistry(Config{}))
	observe(a.Registry(), "t", "s", "", Event{Sender: 1, Size: 1})

	rec := httptest.NewRecorder()
	b.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	vars := decodeVars(t, rec.Body.String())
	if vars["observed_events"] != 0 {
		t.Fatal("server B reported server A's traffic")
	}
}

func TestServerObserveBodyLimit(t *testing.T) {
	_, ts := newTestServer(t)
	huge := strings.Repeat(`{"sender":1,"size":2},`, 1<<16)
	body := fmt.Sprintf(`{"tenant":"t","stream":"s","events":[%s{"sender":1,"size":2}]}`, huge)
	if len(body) <= maxObserveBody {
		t.Fatalf("test body of %d bytes does not exceed the %d limit", len(body), maxObserveBody)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/observe", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %s, want 413", resp.Status)
	}
}

// TestServerObserveOmittedFieldsDoNotLeakAcrossRequests pins the pooled
// decoder's isolation: an event that omits "sender" or "size" must decode
// as zero, not inherit whatever a previous (possibly different-tenant)
// request left in the pooled event slice.
func TestServerObserveOmittedFieldsDoNotLeakAcrossRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	// Request 1 plants a distinctive size at index 0 of the pooled slice.
	postJSON(t, ts.URL+"/v1/observe", `{"tenant":"a","stream":"s","events":[{"sender":1,"size":999}]}`)
	// Request 2 (same pooled scratch, single connection) omits "size".
	postJSON(t, ts.URL+"/v1/observe", `{"tenant":"b","stream":"s","events":[{"sender":2}]}`)

	snap, ok := snapshotFor(srv.Registry(), "b", "s")
	if !ok {
		t.Fatal("tenant b session missing")
	}
	state, err := strategy.DecodeDPDState(snap.Size)
	if err != nil {
		t.Fatal(err)
	}
	if got := state.Window; len(got) != 1 || got[0] != 0 {
		t.Fatalf("tenant b observed size window %v, want [0] — pooled request state leaked", got)
	}
}

// TestServerErrorBodyIsValidJSONForBinaryNames pins writeError's encoding:
// client-supplied names with invalid UTF-8 must still yield parseable
// JSON error bodies.
func TestServerErrorBodyIsValidJSONForBinaryNames(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := get(t, ts.URL+"/v1/predict?tenant=%FF%00&stream=s")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %s, want 404", resp.Status)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(out), &e); err != nil {
		t.Fatalf("error body is not valid JSON: %v\n%q", err, out)
	}
	if e.Error == "" {
		t.Fatal("empty error message")
	}
}

// TestServerRejectsOversizedKeys pins the key-length guard: a session the
// API admitted must always be checkpointable, so names beyond MaxKeyLen
// (far below the snapshot format's string limit) are rejected up front.
func TestServerRejectsOversizedKeys(t *testing.T) {
	srv, ts := newTestServer(t)
	long := strings.Repeat("x", MaxKeyLen+1)
	resp, _ := postJSON(t, ts.URL+"/v1/observe",
		fmt.Sprintf(`{"tenant":"%s","stream":"s","events":[{"sender":1,"size":2}]}`, long))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized tenant returned %s, want 400", resp.Status)
	}
	if srv.Registry().Len() != 0 {
		t.Fatal("rejected request still created a session")
	}
	// And the boundary itself is accepted.
	ok, _ := postJSON(t, ts.URL+"/v1/observe",
		fmt.Sprintf(`{"tenant":"%s","stream":"s","events":[{"sender":1,"size":2}]}`, strings.Repeat("x", MaxKeyLen)))
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("MaxKeyLen-sized tenant returned %s, want 200", ok.Status)
	}
}

// TestServerObservePredictorField pins the HTTP face of per-session
// strategies: the predictor request field selects the strategy at session
// creation, the session listing reports it (with timestamps), an unknown
// name is a 400 and a conflicting name on an existing session is a 409.
func TestServerObservePredictorField(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/observe",
		`{"tenant":"t","stream":"s","predictor":"lastvalue","events":[{"sender":3,"size":30}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe with predictor returned %s", resp.Status)
	}
	// Omitting the predictor keeps addressing the session.
	resp, _ = postJSON(t, ts.URL+"/v1/observe",
		`{"tenant":"t","stream":"s","events":[{"sender":4,"size":40}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up observe returned %s", resp.Status)
	}

	resp, body := get(t, ts.URL+"/v1/sessions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sessions returned %s", resp.Status)
	}
	var listing struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("sessions body %q: %v", body, err)
	}
	if len(listing.Sessions) != 1 {
		t.Fatalf("got %d sessions, want 1", len(listing.Sessions))
	}
	info := listing.Sessions[0]
	if info.Strategy != "lastvalue" {
		t.Fatalf("session strategy %q, want lastvalue", info.Strategy)
	}
	if info.CreatedUnix == 0 || info.LastSeenUnix == 0 {
		t.Fatalf("session listing misses timestamps: %+v", info)
	}

	// A lastvalue session forecasts the most recent event at every horizon.
	resp, body = get(t, ts.URL+"/v1/predict?tenant=t&stream=s&k=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict returned %s", resp.Status)
	}
	var pr predictResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	for _, f := range pr.Forecasts {
		if !f.OK || f.Sender != 4 || f.Size != 40 {
			t.Fatalf("forecast %+v, want sender 4 size 40", f)
		}
	}

	resp, _ = postJSON(t, ts.URL+"/v1/observe",
		`{"tenant":"t","stream":"s","predictor":"nope","events":[{"sender":1,"size":1}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown predictor returned %s, want 400", resp.Status)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/observe",
		`{"tenant":"t","stream":"s","predictor":"dpd","events":[{"sender":1,"size":1}]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting predictor returned %s, want 409", resp.Status)
	}
}

// TestServerPublishVar pins the extension point the daemon uses to surface
// process-level metrics (the shared trace cache) on /debug/vars.
func TestServerPublishVar(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.PublishVar("tracecache", func() interface{} {
		return map[string]int{"hits": 7}
	})
	resp, body := get(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vars returned %s", resp.Status)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("vars body %q: %v", body, err)
	}
	if string(vars["tracecache"]) != `{"hits":7}` {
		t.Fatalf("tracecache var = %s", vars["tracecache"])
	}
}

// Registry returns the registry the server fronts.
func (s *Server) Registry() *Registry { return s.reg }

// Handle registers an extra route on the server's mux, inside the
// resilience envelope (panic recovery, in-flight gate, deadline), so the
// tests exercise the envelope with handlers the server would never ship.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Draining reports whether SetDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }
