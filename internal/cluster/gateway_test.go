package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpipredict/internal/buildinfo"
	"mpipredict/internal/serve"
	"mpipredict/internal/wire"
)

// testBackend is one in-process daemon: a real serve.Server over a real
// registry behind a real listener, with a kill switch that makes the
// backend drop connections the way a SIGKILLed process does, and a
// restart that brings up a fresh process image from a checkpoint.
type testBackend struct {
	mu   sync.RWMutex
	reg  *serve.Registry
	srv  *serve.Server
	ts   *httptest.Server
	dead atomic.Bool
}

func newTestBackend(t *testing.T, cfg serve.Config) *testBackend {
	t.Helper()
	b := &testBackend{reg: serve.NewRegistry(cfg)}
	b.srv = serve.NewServer(b.reg)
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b.dead.Load() {
			// Abort the connection without a response — the closest an
			// in-process server gets to a killed one.
			panic(http.ErrAbortHandler)
		}
		b.mu.RLock()
		srv := b.srv
		b.mu.RUnlock()
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(b.ts.Close)
	return b
}

// registry returns the backend's current registry (restart-safe).
func (b *testBackend) registry() *serve.Registry {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.reg
}

// restart simulates a killed process coming back: all in-memory state is
// gone, replaced by whatever the checkpoint (nil for a cold start) held,
// and the listener answers again.
func (b *testBackend) restart(t *testing.T, cfg serve.Config, checkpoint []byte) {
	t.Helper()
	reg := serve.NewRegistry(cfg)
	if checkpoint != nil {
		sessions, err := serve.ReadSnapshot(bytes.NewReader(checkpoint))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.RestoreSessions(sessions); err != nil {
			t.Fatal(err)
		}
	}
	b.mu.Lock()
	b.reg, b.srv = reg, serve.NewServer(reg)
	b.mu.Unlock()
	b.dead.Store(false)
}

// testCluster is N backends behind one gateway.
type testCluster struct {
	backends map[string]*testBackend // keyed by base URL
	shards   *ShardMap
	gw       *Gateway
	ts       *httptest.Server
}

func fastOptions() Options {
	return Options{MaxRetries: 4, RetryBase: time.Millisecond, BackendTimeout: 5 * time.Second}
}

func newTestCluster(t *testing.T, n int, cfg serve.Config, opts Options) *testCluster {
	t.Helper()
	c := &testCluster{backends: make(map[string]*testBackend, n)}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		b := newTestBackend(t, cfg)
		c.backends[b.ts.URL] = b
		urls = append(urls, b.ts.URL)
	}
	m, err := NewShardMap(urls)
	if err != nil {
		t.Fatal(err)
	}
	c.shards = m
	c.gw = NewGateway(m, opts)
	c.ts = httptest.NewServer(c.gw)
	t.Cleanup(c.ts.Close)
	return c
}

// mergedSnapshotBytes canonically encodes the union of every backend's
// sessions — what one daemon holding the whole cluster's state would
// checkpoint.
func (c *testCluster) mergedSnapshotBytes(t *testing.T) []byte {
	t.Helper()
	parts := make([][]serve.SessionSnapshot, 0, len(c.backends))
	for _, b := range c.backends {
		parts = append(parts, b.registry().SnapshotSessions())
	}
	return encodeSnapshot(t, mergeSnapshots(parts...))
}

// mergeSnapshots concatenates per-backend session snapshots back into
// one canonically sorted set — the inverse of PartitionSnapshot. Writing
// the merged set with serve.WriteSnapshot yields the byte-identical file
// a single daemon holding all the sessions would write, which is how
// these tests prove a sharded deployment holds exactly the single-node
// state.
func mergeSnapshots(parts ...[]serve.SessionSnapshot) []serve.SessionSnapshot {
	var all []serve.SessionSnapshot
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Tenant != all[j].Tenant {
			return all[i].Tenant < all[j].Tenant
		}
		return all[i].Stream < all[j].Stream
	})
	return all
}

func encodeSnapshot(t *testing.T, sessions []serve.SessionSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serve.WriteSnapshot(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postObserve(t *testing.T, baseURL, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/observe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, buf
}

func TestGatewayObserveRoutesToOwner(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	keys := [][2]string{}
	for i := 0; i < 12; i++ {
		keys = append(keys, [2]string{fmt.Sprintf("app.%d", i), fmt.Sprintf("r%d/physical", i)})
	}
	for _, k := range keys {
		body := fmt.Sprintf(`{"tenant":%q,"stream":%q,"events":[{"sender":1,"size":64}]}`, k[0], k[1])
		resp, buf := postObserve(t, c.ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %v returned %s: %s", k, resp.Status, buf)
		}
		owner := c.shards.Owner(k[0], k[1])
		if got := resp.Header.Get("X-Mpipredict-Backend"); got != owner {
			t.Fatalf("observe %v served by %q, owner is %q", k, got, owner)
		}
		if !strings.Contains(string(buf), `"observed":1`) {
			t.Fatalf("backend reply not relayed: %s", buf)
		}
	}
	// Every session lives on exactly its owner.
	total := 0
	for url, b := range c.backends {
		for _, s := range b.reg.Sessions() {
			if owner := c.shards.Owner(s.Tenant, s.Stream); owner != url {
				t.Errorf("session %s/%s lives on %s, owner is %s", s.Tenant, s.Stream, url, owner)
			}
			total++
		}
	}
	if total != len(keys) {
		t.Fatalf("cluster holds %d sessions, want %d", total, len(keys))
	}
}

func TestGatewayObserveSeqDedupSurvivesGatewayHop(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	body := `{"tenant":"app.1","stream":"r0/physical","seq":1,"senders":[3],"sizes":[256]}`
	_, first := postObserve(t, c.ts.URL, body)
	if !strings.Contains(string(first), `"duplicate":false`) {
		t.Fatalf("first delivery marked duplicate: %s", first)
	}
	_, second := postObserve(t, c.ts.URL, body)
	if !strings.Contains(string(second), `"duplicate":true`) {
		t.Fatalf("re-delivery through gateway not deduped: %s", second)
	}
}

func TestGatewayObserveBadRequests(t *testing.T) {
	c := newTestCluster(t, 2, serve.Config{}, fastOptions())
	cases := []struct {
		name, body string
		status     int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"missing key", `{"events":[{"sender":1,"size":1}]}`, http.StatusBadRequest},
		{"empty array", `[]`, http.StatusBadRequest},
		{"array of garbage", `[42]`, http.StatusBadGateway}, // all items fail
	}
	for _, tc := range cases {
		resp, buf := postObserve(t, c.ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, buf)
		}
	}
	resp, err := http.Get(c.ts.URL + "/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET observe: %d, want 405", resp.StatusCode)
	}
}

func TestGatewayObserveBulkSplitsMixedKeys(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	// Two sequenced batches per key, mixed together: the gateway must
	// keep each key's batches in order or the second would be dropped as
	// out-of-sequence never-applied data.
	var items []string
	keys := [][2]string{{"bt.4", "r0/physical"}, {"cg.4", "r1/physical"}, {"is.4", "r2/logical"}}
	for seq := int64(1); seq <= 2; seq++ {
		for _, k := range keys {
			items = append(items, fmt.Sprintf(`{"tenant":%q,"stream":%q,"seq":%d,"senders":[%d],"sizes":[8]}`, k[0], k[1], seq, seq))
		}
	}
	body := "[" + strings.Join(items, ",") + "]"
	resp, buf := postObserve(t, c.ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk observe returned %s: %s", resp.Status, buf)
	}
	var reply struct {
		Results []bulkItemResult `json:"results"`
		Failed  int              `json:"failed"`
	}
	if err := json.Unmarshal(buf, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Failed != 0 || len(reply.Results) != len(items) {
		t.Fatalf("bulk reply: failed=%d results=%d, want 0/%d: %s", reply.Failed, len(reply.Results), len(items), buf)
	}
	for i, res := range reply.Results {
		if res.Status != http.StatusOK {
			t.Errorf("item %d status %d: %s", i, res.Status, res.Reply)
		}
		if strings.Contains(string(res.Reply), `"duplicate":true`) {
			t.Errorf("item %d wrongly deduped — per-key order was lost: %s", i, res.Reply)
		}
	}
	// Each key must have exactly one session with both events applied.
	for _, k := range keys {
		owner := c.backends[c.shards.Owner(k[0], k[1])]
		found := false
		for _, s := range owner.reg.Sessions() {
			if s.Tenant == k[0] && s.Stream == k[1] {
				found = true
				if s.Observed != 2 || s.LastSeq != 2 {
					t.Errorf("session %v: observed=%d lastSeq=%d, want 2/2", k, s.Observed, s.LastSeq)
				}
			}
		}
		if !found {
			t.Errorf("session %v missing on its owner", k)
		}
	}
	// Whole-array re-delivery: every item acks as duplicate, none reapply.
	resp2, buf2 := postObserve(t, c.ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("bulk re-delivery returned %s", resp2.Status)
	}
	if got := strings.Count(string(buf2), `\"duplicate\":true`) + strings.Count(string(buf2), `"duplicate":true`); got != len(items) {
		t.Fatalf("re-delivery deduped %d of %d items: %s", got, len(items), buf2)
	}
}

func TestGatewayObserveBulkPartialFailure(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	// Find two keys owned by different backends, kill one owner.
	keyA := [2]string{"app.a", "r0/physical"}
	ownerA := c.shards.Owner(keyA[0], keyA[1])
	var keyB [2]string
	for i := 0; ; i++ {
		keyB = [2]string{fmt.Sprintf("app.b%d", i), "r0/physical"}
		if c.shards.Owner(keyB[0], keyB[1]) != ownerA {
			break
		}
	}
	c.backends[ownerA].dead.Store(true)
	body := fmt.Sprintf(`[{"tenant":%q,"stream":%q,"senders":[1],"sizes":[1]},{"tenant":%q,"stream":%q,"senders":[2],"sizes":[2]}]`,
		keyA[0], keyA[1], keyB[0], keyB[1])
	resp, buf := postObserve(t, c.ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial bulk returned %s (want 200 degraded): %s", resp.Status, buf)
	}
	var reply struct {
		Results []bulkItemResult `json:"results"`
		Failed  int              `json:"failed"`
	}
	if err := json.Unmarshal(buf, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Failed != 1 {
		t.Fatalf("failed = %d, want 1: %s", reply.Failed, buf)
	}
	if reply.Results[0].Error == "" || reply.Results[1].Status != http.StatusOK {
		t.Fatalf("wrong item outcomes: %+v", reply.Results)
	}
}

func TestGatewayPredictForwardsAndPassesThrough404(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	body := `{"tenant":"bt.4","stream":"r0/physical","senders":[7,7,7],"sizes":[64,64,64]}`
	if resp, buf := postObserve(t, c.ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %s: %s", resp.Status, buf)
	}
	resp, err := http.Get(c.ts.URL + "/v1/predict?tenant=bt.4&stream=r0/physical&k=3")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict returned %s: %s", resp.Status, buf)
	}
	var pr struct {
		Observed  int64            `json:"observed"`
		Forecasts []serve.Forecast `json:"forecasts"`
	}
	if err := json.Unmarshal(buf, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Observed != 3 || len(pr.Forecasts) != 3 {
		t.Fatalf("predict body: observed=%d forecasts=%d", pr.Observed, len(pr.Forecasts))
	}
	if !pr.Forecasts[0].SenderOK || pr.Forecasts[0].Sender != 7 {
		t.Fatalf("constant stream not predicted: %+v", pr.Forecasts[0])
	}
	// A miss on the owner comes back as the owner's 404, not a gateway 502.
	resp, err = http.Get(c.ts.URL + "/v1/predict?tenant=nope&stream=nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session: %d, want 404", resp.StatusCode)
	}
}

func TestGatewayRetriesTransientBackendFailures(t *testing.T) {
	// One flaky backend that 503s (with a Retry-After) twice before
	// serving: the gateway's forward must absorb the failures the way the
	// replay client would.
	var calls atomic.Int64
	reg := serve.NewRegistry(serve.Config{})
	srv := serve.NewServer(reg)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	m, err := NewShardMap([]string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(m, fastOptions())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	resp, buf := postObserve(t, gts.URL, `{"tenant":"a","stream":"b","senders":[1],"sizes":[1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe through flaky backend: %s: %s", resp.Status, buf)
	}
	if got := gw.stats[ts.URL].retries.Load(); got != 2 {
		t.Fatalf("gateway recorded %d retries, want 2", got)
	}
	if reg.Len() != 1 {
		t.Fatalf("backend sessions = %d, want 1", reg.Len())
	}
}

func TestGatewaySessionsMergesSortsAndPaginates(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	const n = 9
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"tenant":"app.%02d","stream":"r0/physical","senders":[1],"sizes":[1]}`, i)
		if resp, buf := postObserve(t, c.ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %d: %s: %s", i, resp.Status, buf)
		}
	}
	get := func(query string) ClusterSessionsResponse {
		t.Helper()
		resp, err := http.Get(c.ts.URL + "/v1/sessions" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sessions%s returned %s", query, resp.Status)
		}
		var sr ClusterSessionsResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	full := get("")
	if full.Total != n || len(full.Sessions) != n || full.Degraded {
		t.Fatalf("full listing: total=%d len=%d degraded=%v", full.Total, len(full.Sessions), full.Degraded)
	}
	for i := 1; i < len(full.Sessions); i++ {
		a, b := full.Sessions[i-1], full.Sessions[i]
		if a.Tenant > b.Tenant || (a.Tenant == b.Tenant && a.Stream >= b.Stream) {
			t.Fatalf("merged listing out of order at %d: %s/%s then %s/%s", i, a.Tenant, a.Stream, b.Tenant, b.Stream)
		}
	}
	// Paging through with limit=4 must reconstruct the full listing.
	var paged []serve.SessionInfo
	for off := 0; off < n; off += 4 {
		page := get(fmt.Sprintf("?limit=4&offset=%d", off))
		if page.Total != n {
			t.Fatalf("page at %d: total=%d, want %d", off, page.Total, n)
		}
		paged = append(paged, page.Sessions...)
	}
	if len(paged) != n {
		t.Fatalf("paged rows = %d, want %d", len(paged), n)
	}
	for i := range paged {
		if paged[i].Tenant != full.Sessions[i].Tenant || paged[i].Stream != full.Sessions[i].Stream {
			t.Fatalf("paged[%d] = %s/%s, full[%d] = %s/%s", i, paged[i].Tenant, paged[i].Stream, i, full.Sessions[i].Tenant, full.Sessions[i].Stream)
		}
	}
	// Beyond-the-end offset: empty page, correct total.
	tail := get(fmt.Sprintf("?offset=%d", n+5))
	if len(tail.Sessions) != 0 || tail.Total != n {
		t.Fatalf("tail page: len=%d total=%d", len(tail.Sessions), tail.Total)
	}
	// Bad parameters are rejected at the gateway.
	for _, q := range []string{"?limit=0", "?limit=-1", "?limit=999999", "?offset=x"} {
		resp, err := http.Get(c.ts.URL + "/v1/sessions" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sessions%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestGatewaySessionsDegradedOnDeadBackend(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"tenant":"app.%d","stream":"r0/physical","senders":[1],"sizes":[1]}`, i)
		postObserve(t, c.ts.URL, body)
	}
	var victim string
	var victimSessions int
	for url, b := range c.backends {
		if n := b.reg.Len(); n > 0 {
			victim, victimSessions = url, n
			break
		}
	}
	c.backends[victim].dead.Store(true)
	resp, err := http.Get(c.ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded sessions returned %s, want 200", resp.Status)
	}
	var sr ClusterSessionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Degraded {
		t.Fatal("response not marked degraded with a dead backend")
	}
	if _, ok := sr.Errors[victim]; !ok {
		t.Fatalf("dead backend %s not named in errors: %v", victim, sr.Errors)
	}
	if sr.Total != 6-victimSessions || len(sr.Sessions) != 6-victimSessions {
		t.Fatalf("degraded listing: total=%d len=%d, want %d", sr.Total, len(sr.Sessions), 6-victimSessions)
	}
}

func TestGatewayReadyzAggregates(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	status := func() (int, string) {
		t.Helper()
		resp, err := http.Get(c.ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
			Ready  int    `json:"ready"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status
	}
	if code, s := status(); code != http.StatusOK || s != "ready" {
		t.Fatalf("all-up readyz: %d %q", code, s)
	}
	var downed []*testBackend
	for _, b := range c.backends {
		b.dead.Store(true)
		downed = append(downed, b)
		code, s := status()
		switch {
		case len(downed) < len(c.backends):
			if code != http.StatusOK || s != "degraded" {
				t.Fatalf("with %d dead: %d %q, want 200 degraded", len(downed), code, s)
			}
		default:
			if code != http.StatusServiceUnavailable || s != "unavailable" {
				t.Fatalf("all dead: %d %q, want 503 unavailable", code, s)
			}
		}
	}
	// Liveness never depends on backends.
	resp, err := http.Get(c.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with all backends dead: %d", resp.StatusCode)
	}
}

func TestGatewayVarsAggregateBackends(t *testing.T) {
	c := newTestCluster(t, 2, serve.Config{}, fastOptions())
	postObserve(t, c.ts.URL, `{"tenant":"a","stream":"b","senders":[1],"sizes":[1]}`)
	var victim string
	for url := range c.backends {
		victim = url
		break
	}
	c.backends[victim].dead.Store(true)

	resp, err := http.Get(c.ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars struct {
		Buildinfo    buildinfo.Info                    `json:"buildinfo"`
		Forwarded    int64                             `json:"forwarded_requests"`
		BackendStats map[string]map[string]interface{} `json:"backend_stats"`
		BackendVars  map[string]map[string]interface{} `json:"backend_vars"`
	}
	if err := json.Unmarshal(buf, &vars); err != nil {
		t.Fatalf("gateway vars not valid JSON: %v\n%s", err, buf)
	}
	if vars.Buildinfo.Version == "" {
		t.Fatal("gateway vars missing buildinfo")
	}
	if vars.Forwarded < 1 {
		t.Fatalf("forwarded_requests = %d, want >= 1", vars.Forwarded)
	}
	if len(vars.BackendVars) != 2 {
		t.Fatalf("backend_vars has %d entries, want 2", len(vars.BackendVars))
	}
	if _, ok := vars.BackendVars[victim]["error"]; !ok {
		t.Fatalf("dead backend vars entry lacks error: %v", vars.BackendVars[victim])
	}
	for url, bv := range vars.BackendVars {
		if url == victim {
			continue
		}
		if _, ok := bv["sessions"]; !ok {
			t.Fatalf("live backend vars not relayed: %v", bv)
		}
	}
	if len(vars.BackendStats) != 2 {
		t.Fatalf("backend_stats has %d entries, want 2", len(vars.BackendStats))
	}
}

// TestGatewayVarsSpliceWireComposite: a backend serving the binary wire
// protocol exports a "wire" counter composite on its /debug/vars, and
// the gateway's verbatim splice must carry it through backend_vars
// unchanged — operators watching the front door see the wire traffic of
// every node without scraping backends directly.
func TestGatewayVarsSpliceWireComposite(t *testing.T) {
	c := newTestCluster(t, 2, serve.Config{}, fastOptions())

	// Attach a live wire listener to one backend and feed it one block.
	var wired *testBackend
	var wiredURL string
	for url, b := range c.backends {
		wired, wiredURL = b, url
		break
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := serve.NewWireServer(wired.srv)
	wired.srv.SetWireAddr(ln.Addr().String())
	go ws.Serve(ln)
	defer ws.Close()

	ctx := context.Background()
	wc, err := wire.Dial(ctx, ln.Addr().String(), wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if err := wc.ObserveBlock(ctx, "wt", "ws", "", 1, []int64{1, 2}, []int64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars struct {
		BackendVars map[string]struct {
			Wire map[string]int64 `json:"wire"`
		} `json:"backend_vars"`
	}
	if err := json.Unmarshal(buf, &vars); err != nil {
		t.Fatalf("gateway vars not valid JSON: %v\n%s", err, buf)
	}
	wv := vars.BackendVars[wiredURL].Wire
	if wv == nil {
		t.Fatalf("wire composite missing from spliced backend vars: %s", buf)
	}
	if wv["connections_total"] < 1 || wv["observe_frames"] < 1 {
		t.Fatalf("wire composite did not ride through the splice intact: %v", wv)
	}
	for url, bv := range vars.BackendVars {
		if url != wiredURL && bv.Wire != nil {
			t.Fatalf("wireless backend %s grew a wire composite: %v", url, bv.Wire)
		}
	}
}

func TestGatewayCheckBuilds(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	warnings, err := c.gw.CheckBuilds(context.Background())
	if err != nil || len(warnings) != 0 {
		t.Fatalf("uniform cluster: err=%v warnings=%v", err, warnings)
	}
	// An unreachable backend is a warning, not a startup failure.
	var victim string
	for url := range c.backends {
		victim = url
		break
	}
	c.backends[victim].dead.Store(true)
	warnings, err = c.gw.CheckBuilds(context.Background())
	if err != nil {
		t.Fatalf("unreachable backend failed the check: %v", err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], victim) {
		t.Fatalf("warnings = %v, want one naming %s", warnings, victim)
	}
}

func TestGatewayCheckBuildsRejectsMismatch(t *testing.T) {
	// A fake backend reporting a different build: the check must refuse.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"buildinfo":{"version":"v999.0","commit":"deadbeef","go_version":"go0.0"}}`)
	}))
	defer fake.Close()
	real := newTestBackend(t, serve.Config{})
	m, err := NewShardMap([]string{fake.URL, real.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(m, fastOptions())
	if _, err := gw.CheckBuilds(context.Background()); err == nil {
		t.Fatal("mismatched builds passed the check")
	} else if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
}
