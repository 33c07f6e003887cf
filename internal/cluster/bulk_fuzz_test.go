package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mpipredict/internal/serve"
)

// roundTripFunc serves a gateway's backend requests in process.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzGatewayObserveBulk drives the gateway's bulk splitter with arbitrary
// observe arrays over three in-process backends, one of them refusing
// connections when down selects it. The splitter must never panic and
// must answer 200, 400, 413 or 502. A 200 or 502 reply must be valid JSON
// with one result per array item and a failed count matching the failing
// items, and every backend must have received its items in array order.
func FuzzGatewayObserveBulk(f *testing.F) {
	f.Add([]byte(`[{"tenant":"bt.4","stream":"r0/physical","seq":1,"senders":[1],"sizes":[8]},{"tenant":"cg.4","stream":"r1/logical","senders":[2,3],"sizes":[8,16]}]`), uint8(3))
	f.Add([]byte(`[{"tenant":"a","stream":"s","events":[{"sender":1,"size":2}]},{"tenant":"b","stream":"s","events":[{"sender":1,"size":2}]},{"tenant":"c","stream":"s","events":[{"sender":1,"size":2}]}]`), uint8(0))
	f.Add([]byte(`[{"tenant":"a","stream":"s"},{"stream":"s"},7,"x",null,{"tenant":"a","stream":"s","senders":[1],"sizes":[]}]`), uint8(1))
	f.Add([]byte(`[]`), uint8(3))
	f.Add([]byte(` [{"tenant":"a","stream":"s","seq":-1,"senders":[1],"sizes":[1]}`), uint8(2))

	backends := []string{"http://b0", "http://b1", "http://b2"}
	shards, err := NewShardMap(backends)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, down uint8) {
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '[' {
			return // the single-item path relays backend statuses verbatim
		}
		dead := ""
		if int(down) < len(backends) {
			dead = backends[down]
		}
		servers := make(map[string]*serve.Server, len(backends))
		for _, b := range backends {
			servers[b] = serve.NewServer(serve.NewRegistry(serve.Config{}))
		}
		var mu sync.Mutex
		received := make(map[string][][]byte)
		transport := roundTripFunc(func(r *http.Request) (*http.Response, error) {
			base := r.URL.Scheme + "://" + r.URL.Host
			if base == dead {
				return nil, errors.New("connection refused")
			}
			payload, err := io.ReadAll(r.Body)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			received[base] = append(received[base], payload)
			mu.Unlock()
			req := r.Clone(r.Context())
			req.Body = io.NopCloser(bytes.NewReader(payload))
			rec := httptest.NewRecorder()
			servers[base].ServeHTTP(rec, req)
			return rec.Result(), nil
		})
		gw := NewGateway(shards, Options{Client: &http.Client{Transport: transport}, MaxRetries: -1})

		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK, http.StatusBadGateway:
		default:
			t.Fatalf("bulk observe answered %d: %s", rec.Code, rec.Body)
		}
		var items []json.RawMessage
		if err := json.Unmarshal(body, &items); err != nil {
			t.Fatalf("answered %d to an array the test cannot decode: %v", rec.Code, err)
		}
		var reply struct {
			Results []bulkItemResult `json:"results"`
			Failed  int              `json:"failed"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("reply is not JSON: %v: %s", err, rec.Body)
		}
		if len(reply.Results) != len(items) {
			t.Fatalf("%d results for %d items", len(reply.Results), len(items))
		}
		failed := 0
		want := make(map[string][][]byte)
		for i, res := range reply.Results {
			if res.Error != "" || res.Status != http.StatusOK {
				failed++
			}
			var probe routeProbe
			if json.Unmarshal(items[i], &probe) != nil || probe.Tenant == "" || probe.Stream == "" {
				if res.Error == "" || res.Backend != "" {
					t.Fatalf("unroutable item %d was not failed locally: %+v", i, res)
				}
				continue
			}
			owner := shards.Owner(probe.Tenant, probe.Stream)
			if res.Backend != owner {
				t.Fatalf("item %d went to %q, its owner is %q", i, res.Backend, owner)
			}
			if owner == dead {
				if res.Error == "" {
					t.Fatalf("item %d owned by the dead backend did not fail: %+v", i, res)
				}
				continue
			}
			want[owner] = append(want[owner], items[i])
		}
		if failed != reply.Failed {
			t.Fatalf("failed = %d, but %d items failed", reply.Failed, failed)
		}
		if (rec.Code == http.StatusBadGateway) != (failed == len(items)) {
			t.Fatalf("status %d with %d of %d items failed", rec.Code, failed, len(items))
		}
		for _, b := range backends {
			if len(received[b]) != len(want[b]) {
				t.Fatalf("%s received %d items, want %d", b, len(received[b]), len(want[b]))
			}
			for i := range want[b] {
				if !bytes.Equal(received[b][i], want[b][i]) {
					t.Fatalf("%s item %d out of array order: got %s, want %s", b, i, received[b][i], want[b][i])
				}
			}
		}
	})
}
