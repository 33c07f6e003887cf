package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mpipredict/internal/strategy"
)

// TestSessionMetaTelemetry drives a meta-strategy session and checks the
// router telemetry end to end: the session listing carries leaders,
// switch counts and per-expert rolling hit rates, the registry aggregate
// sums them, and /debug/vars serves the composite.
func TestSessionMetaTelemetry(t *testing.T) {
	srv, ts := newTestServer(t)
	reg := srv.Registry()
	// A repeating-run stream: lastvalue-friendly, so rates separate.
	for i := 0; i < 200; i++ {
		if _, err := observe(reg, "t", "s", strategy.MetaName, Event{Sender: int64(i / 10 % 7), Size: 512}); err != nil {
			t.Fatal(err)
		}
	}
	observe(reg, "t", "plain", "", Event{Sender: 1, Size: 1}) // non-meta control

	info, ok := reg.Info("t", "s")
	if !ok || info.Meta == nil {
		t.Fatalf("meta session info = %+v, ok=%v; want router telemetry", info, ok)
	}
	if !strategy.Known(info.Meta.SenderLeader) || !strategy.Known(info.Meta.SizeLeader) {
		t.Fatalf("leaders %q/%q are not registered strategies", info.Meta.SenderLeader, info.Meta.SizeLeader)
	}
	for _, rates := range []map[string]float64{info.Meta.SenderRates, info.Meta.SizeRates} {
		if len(rates) < 2 {
			t.Fatalf("expert rate map %v too small", rates)
		}
		for name, rate := range rates {
			if rate < 0 || rate > 1 {
				t.Fatalf("expert %s rate %f outside [0, 1]", name, rate)
			}
		}
	}
	// The size stream is constant: lastvalue and markov1 hit ~always, so
	// the windowed rate must be high, and dpd must not dominate a stream
	// it abstains on.
	if info.Meta.SizeRates["lastvalue"] < 0.9 {
		t.Fatalf("constant size stream scored lastvalue at %f", info.Meta.SizeRates["lastvalue"])
	}

	if plain, ok := reg.Info("t", "plain"); !ok || plain.Meta != nil {
		t.Fatalf("non-meta session carries router telemetry: %+v", plain.Meta)
	}

	stats := reg.MetaStats()
	if stats.Sessions != 1 {
		t.Fatalf("MetaStats.Sessions = %d, want 1", stats.Sessions)
	}
	if stats.Switches != info.Meta.Switches {
		t.Fatalf("aggregate switches %d, session reports %d", stats.Switches, info.Meta.Switches)
	}
	if n := stats.Leaders[info.Meta.SenderLeader]; n < 1 {
		t.Fatalf("leader map %v does not count the sender leader", stats.Leaders)
	}
	if len(stats.HitRates) < 2 {
		t.Fatalf("aggregate hit rates %v too small", stats.HitRates)
	}

	// The JSON surfaces: /v1/sessions rows and the /debug/vars composite.
	_, out := get(t, ts.URL+"/v1/sessions")
	var listing struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(out), &listing); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range listing.Sessions {
		if s.Stream == "s" {
			found = true
			if s.Meta == nil || s.Meta.SenderLeader != info.Meta.SenderLeader {
				t.Fatalf("listing meta = %+v, want leader %q", s.Meta, info.Meta.SenderLeader)
			}
		}
	}
	if !found {
		t.Fatal("meta session missing from the listing")
	}
	_, body := get(t, ts.URL+"/debug/vars")
	var vars struct {
		Meta MetaStats `json:"meta"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatal(err)
	}
	if vars.Meta.Sessions != 1 || len(vars.Meta.HitRates) < 2 {
		t.Fatalf("/debug/vars meta = %+v", vars.Meta)
	}
}

// TestMetaTelemetryConcurrentScrape hammers the router telemetry from
// scrapers while observers and forecasters run — the -race proof that
// RouteInfo aggregation takes the same shard locks as the hot path.
func TestMetaTelemetryConcurrentScrape(t *testing.T) {
	srv := NewServer(NewRegistry(Config{Strategy: strategy.MetaName, Shards: 4}))
	reg := srv.Registry()
	const (
		streams = 8
		rounds  = 150
	)
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream := fmt.Sprintf("s%d", g)
			buf := make([]Forecast, 0, 5)
			for i := 0; i < rounds; i++ {
				observe(reg, "t", stream, "", Event{Sender: int64(i % (g + 2)), Size: int64(g)})
				buf, _, _ = reg.ForecastInto(buf[:0], "t", stream, 5)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				stats := reg.MetaStats()
				if stats.Sessions > streams {
					t.Errorf("MetaStats.Sessions = %d with %d streams", stats.Sessions, streams)
					return
				}
				for _, s := range reg.Sessions() {
					if s.Meta == nil {
						t.Errorf("meta-default session %s/%s has no router telemetry", s.Tenant, s.Stream)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vars returned %d", rec.Code)
	}
	stats := reg.MetaStats()
	if stats.Sessions != streams {
		t.Fatalf("MetaStats.Sessions = %d, want %d", stats.Sessions, streams)
	}
}
