package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpipredict/internal/core"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
)

// TestRegistryObserveBlockZeroAllocs pins the block-pipeline fast path:
// a 64-event columnar block on an existing session must not allocate at
// all — 0 allocs per block and therefore 0 allocs per event.
func TestRegistryObserveBlockZeroAllocs(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "tenant", "stream", 6, 4*core.DefaultConfig().WindowSize)
	senders := make([]int64, 64)
	sizes := make([]int64, 64)
	for i := range senders {
		senders[i] = int64(i % 6)
		sizes[i] = int64(100 * (i % 6))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := r.ObserveBlockSeq("tenant", "stream", "", 0, senders, sizes); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Registry.ObserveBlockSeq allocates %.2f objects per 64-event block, want 0", allocs)
	}
}

// TestObserveBlockMatchesObserveBatch pins that the columnar path drives
// sessions into the exact state the event-object path does: a stream
// posted as "events" bodies to the observe handler and the same stream
// given to ObserveBlockSeq as columns leave identical snapshots.
func TestObserveBlockMatchesObserveBatch(t *testing.T) {
	batchReg := NewRegistry(Config{})
	blockReg := NewRegistry(Config{})
	srv := NewServer(batchReg)
	const n = 500
	events := make([]Event, n)
	senders := make([]int64, n)
	sizes := make([]int64, n)
	for i := 0; i < n; i++ {
		events[i] = Event{Sender: int64(i % 9), Size: int64(64 * (i % 9))}
		senders[i] = events[i].Sender
		sizes[i] = events[i].Size
	}
	for i := 0; i < n; i += 64 {
		end := i + 64
		if end > n {
			end = n
		}
		body, err := json.Marshal(observeRequest{Tenant: "t", Stream: "s", Events: events[i:end]})
		if err != nil {
			t.Fatal(err)
		}
		if rec := postObserveJSON(t, srv, string(body)); rec.Code != http.StatusOK {
			t.Fatalf("events body returned %d: %s", rec.Code, rec.Body.String())
		}
		if _, _, err := blockReg.ObserveBlockSeq("t", "s", "", 0, senders[i:end], sizes[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	a, b := batchReg.SnapshotSessions(), blockReg.SnapshotSessions()
	if !reflect.DeepEqual(a, b) {
		t.Error("block-fed session snapshot differs from the events-fed one")
	}
}

func TestObserveBlockValidation(t *testing.T) {
	r := NewRegistry(Config{})
	if _, _, err := r.ObserveBlockSeq("t", "s", "", 0, []int64{1, 2}, []int64{1}); err == nil {
		t.Error("mismatched column lengths accepted")
	}
	if _, _, err := r.ObserveBlockSeq("t", "s", "", 0, nil, nil); err == nil {
		t.Error("empty block accepted")
	}
	if _, _, err := r.ObserveBlockSeq("t", "s", "no-such-strategy", 0, []int64{1}, []int64{2}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if r.Len() != 0 {
		t.Fatal("a refused block created a session")
	}
	if _, _, err := r.ObserveBlockSeq("t", "s", "", 0, []int64{1}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ObserveBlockSeq("t", "s", "markov1", 0, []int64{1}, []int64{2}); !errors.Is(err, ErrStrategyMismatch) {
		t.Errorf("strategy mismatch on an existing session: got %v, want ErrStrategyMismatch", err)
	}
	if total, _, err := r.ObserveBlockSeq("t", "s", "dpd", 0, []int64{3}, []int64{4}); err != nil || total != 2 {
		t.Errorf("matching strategy: total=%d err=%v", total, err)
	}
}

// postObserveJSON drives the real observe handler with a raw body.
func postObserveJSON(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/observe", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestObserveHandlerColumnarBody(t *testing.T) {
	reg := NewRegistry(Config{})
	srv := NewServer(reg)

	rec := postObserveJSON(t, srv, `{"tenant":"t","stream":"s","senders":[1,2,3],"sizes":[10,20,30]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("columnar observe returned %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"observed":3`) {
		t.Errorf("response = %s, want observed:3", rec.Body.String())
	}
	info, ok := reg.Info("t", "s")
	if !ok || info.Observed != 3 {
		t.Fatalf("session after columnar observe: %+v, %v", info, ok)
	}

	for body, wantErr := range map[string]string{
		`{"tenant":"t","stream":"s","senders":[1,2],"sizes":[10]}`:                               "same length",
		`{"tenant":"t","stream":"s","events":[{"sender":1,"size":2}],"senders":[1],"sizes":[2]}`: "not both",
	} {
		rec := postObserveJSON(t, srv, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), wantErr) {
			t.Errorf("body %s: code=%d body=%s, want 400 with %q", body, rec.Code, rec.Body.String(), wantErr)
		}
	}

	// Columnar observes mix freely with object observes on one session.
	rec = postObserveJSON(t, srv, `{"tenant":"t","stream":"s","events":[{"sender":4,"size":40}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("object observe after columnar returned %d", rec.Code)
	}
	if info, _ := reg.Info("t", "s"); info.Observed != 4 {
		t.Errorf("observed = %d, want 4", info.Observed)
	}
}

// TestReplaySourceMatchesReplay pins the streaming ingester: replaying a
// corpus trace from a file source leaves the daemon in the identical
// session state as replaying the materialized trace, and the stats agree.
func TestReplaySourceMatchesReplay(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "corpus", "bt.4.mpts")
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	run := func(replay func(baseURL string) (ReplayStats, error)) ([]SessionSnapshot, ReplayStats) {
		t.Helper()
		reg := NewRegistry(Config{})
		srv := httptest.NewServer(NewServer(reg))
		defer srv.Close()
		stats, err := replay(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		return reg.SnapshotSessions(), stats
	}

	wantSnaps, wantStats := run(func(u string) (ReplayStats, error) {
		return ReplaySource(context.Background(), u, stream.TraceSource(tr), ReplayOptions{})
	})
	gotSnaps, gotStats := run(func(u string) (ReplayStats, error) {
		src, err := stream.OpenFile(path)
		if err != nil {
			return ReplayStats{}, err
		}
		defer src.Close()
		return ReplaySource(context.Background(), u, src, ReplayOptions{})
	})

	if !reflect.DeepEqual(gotSnaps, wantSnaps) {
		t.Error("file-streamed replay left different session state than the in-memory replay")
	}
	gotStats.Duration, wantStats.Duration = 0, 0
	if gotStats != wantStats {
		t.Errorf("replay stats differ: streamed %+v, in-memory %+v", gotStats, wantStats)
	}
}

// TestReplaySourceRequiresTenantWithoutMetadata covers the generator
// case: a source with no app/procs metadata needs an explicit tenant.
func TestReplaySourceRequiresTenantWithoutMetadata(t *testing.T) {
	reg := NewRegistry(Config{})
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	cfg := trace.SynthConfig{App: "synth", Procs: 2, Receiver: 0,
		Pattern: []trace.SynthMessage{{Sender: 1, Size: 8}}, Events: 10}
	bare := metaStripper{stream.SynthSource(cfg)}
	if _, err := ReplaySource(context.Background(), srv.URL, bare, ReplayOptions{}); err == nil || !strings.Contains(err.Error(), "Tenant") {
		t.Errorf("metadata-less replay without tenant: err = %v", err)
	}
	if _, err := ReplaySource(context.Background(), srv.URL, metaStripper{stream.SynthSource(cfg)}, ReplayOptions{Tenant: "x"}); err != nil {
		t.Errorf("explicit tenant rejected: %v", err)
	}
	if reg.Len() != 2 {
		t.Errorf("sessions = %d, want 2 (logical + physical)", reg.Len())
	}
}

// metaStripper hides a source's metadata.
type metaStripper struct{ src stream.Source }

func (m metaStripper) Next(b *stream.EventBlock) error { return m.src.Next(b) }
