package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mpipredict/internal/core"
)

// TestRegistryObserveZeroAllocs pins the service hot path: observing a
// one-event block on an existing session — shard hash, LRU touch, two
// predictor observes, counter bump — must not allocate. This is the
// single-event steady state of a daemon under full load.
func TestRegistryObserveZeroAllocs(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "tenant", "stream", 6, 4*core.DefaultConfig().WindowSize)

	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		v := int64(i % 6)
		if _, _, err := r.ObserveBlockSeq("tenant", "stream", "", 0, []int64{v}, []int64{100 * v}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("one-event ObserveBlockSeq allocates %.2f objects per event, want 0", allocs)
	}
}

// TestRegistryObserveLearningZeroAllocs covers the other steady state: a
// session whose stream never locks must not allocate per event either.
func TestRegistryObserveLearningZeroAllocs(t *testing.T) {
	r := NewRegistry(Config{})
	var x int64
	for i := 0; i < 4*core.DefaultConfig().WindowSize; i++ {
		observe(r, "tenant", "stream", "", Event{Sender: x, Size: x})
		x++
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := r.ObserveBlockSeq("tenant", "stream", "", 0, []int64{x}, []int64{x}); err != nil {
			t.Fatal(err)
		}
		x++
	})
	if allocs != 0 {
		t.Errorf("learning-state ObserveBlockSeq allocates %.2f objects per event, want 0", allocs)
	}
}

// TestRegistryObserveBatchZeroAllocs pins the batched ingest path the
// replay ingesters drive: unsequenced blocks of every length up to a
// multi-request batch observe without allocating.
func TestRegistryObserveBatchZeroAllocs(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "tenant", "stream", 6, 4*core.DefaultConfig().WindowSize)
	senders := make([]int64, 512)
	sizes := make([]int64, 512)
	for i := range senders {
		senders[i] = int64(i % 6)
		sizes[i] = int64(100 * (i % 6))
	}
	for _, n := range []int{1, 7, 64, 512} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := r.ObserveBlockSeq("tenant", "stream", "", 0, senders[:n], sizes[:n]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ObserveBlockSeq allocates %.2f objects per %d-event batch, want 0", allocs, n)
		}
	}
}

// TestRegistryObserveBatchSeqZeroAllocs pins the idempotent ingest path:
// the duplicate check is one integer compare under the shard lock, so
// sequenced blocks — applied or dropped as duplicates — must stay
// allocation-free like unsequenced ones.
func TestRegistryObserveBatchSeqZeroAllocs(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "tenant", "stream", 6, 4*core.DefaultConfig().WindowSize)
	senders := make([]int64, 64)
	sizes := make([]int64, 64)
	for i := range senders {
		senders[i] = int64(i % 6)
		sizes[i] = int64(100 * (i % 6))
	}
	seq := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		if _, _, err := r.ObserveBlockSeq("tenant", "stream", "", seq, senders, sizes); err != nil {
			t.Fatal(err)
		}
		// Duplicate delivery of the same seq: dropped without observing.
		if _, dup, err := r.ObserveBlockSeq("tenant", "stream", "", seq, senders, sizes); err != nil || !dup {
			t.Fatalf("dup=%v err=%v", dup, err)
		}
	})
	if allocs != 0 {
		t.Errorf("sequenced ObserveBlockSeq allocates %.2f objects per block pair, want 0", allocs)
	}
}

// discardResponse is an http.ResponseWriter that swallows the reply —
// the alloc pins below must measure the handler, not a recorder.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// reusableBody replays the same bytes as a fresh request body each run.
type reusableBody struct{ bytes.Reader }

func (b *reusableBody) Close() error { return nil }

// TestObserveHandlerDecodeAllocs pins the satellite claim behind the
// pooled body scratch: a steady-state columnar observe request — body
// slurp, JSON decode into pooled columns, sequenced block observe,
// response — must not allocate proportionally to the batch. The budget
// covers only encoding/json's fixed per-Unmarshal state, the
// MaxBytesReader wrapper and the decoded key strings; the body buffer
// and both columns come from the pool. Before the pooling, the fresh
// json.Decoder's private buffer alone made this grow with body size.
func TestObserveHandlerDecodeAllocs(t *testing.T) {
	srv := NewServer(NewRegistry(Config{}))
	senders := make([]int64, 256)
	sizes := make([]int64, 256)
	seq, pos := int64(0), int64(0)
	// The stream must be phase-continuous ACROSS requests (like
	// feedPeriodic): a pattern that restarts at phase 0 every block keeps
	// the predictor learning — and allocating — forever.
	payload := func() []byte {
		for i := range senders {
			p := (pos + int64(i)) % 6
			senders[i] = p
			sizes[i] = 100 * p
		}
		pos += int64(len(senders))
		seq++
		p, err := json.Marshal(observeRequest{Tenant: "t", Stream: "s", Seq: seq, Senders: senders, Sizes: sizes})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Warm the session past its learning phase (the predictor allocates
	// while its tables grow) and the scratch pool, outside the loop.
	req := httptest.NewRequest(http.MethodPost, "/v1/observe", nil)
	w := &discardResponse{h: make(http.Header)}
	body := &reusableBody{}
	for i := 0; i < 8*core.DefaultConfig().WindowSize/len(senders); i++ {
		body.Reset(payload())
		req.Body = body
		srv.handleObserve(w, req)
	}

	bodies := make([][]byte, 100)
	for i := range bodies {
		bodies[i] = payload()
	}
	i := 0
	allocs := testing.AllocsPerRun(len(bodies)-1, func() {
		body.Reset(bodies[i%len(bodies)])
		req.Body = body
		srv.handleObserve(w, req)
		i++
	})
	// Measured ~9 on go1.24; the slack covers the extra fixed bookkeeping
	// the race detector's instrumentation adds (13 under -race). What the
	// pin guards against is proportional cost: before the pooling, this
	// was 59 and grew with the body size.
	const budget = 16
	if allocs > budget {
		t.Errorf("observe handler allocates %.1f objects per 256-event columnar request, want <= %d", allocs, budget)
	}
	if got := srv.Registry().Stats().Events; got == 0 {
		t.Fatal("handler observed nothing — measurement is vacuous")
	}
}

// TestRegistryForecastIntoZeroAllocs pins the query path's buffer-reuse
// contract, mirroring core's PredictSeriesInto test.
func TestRegistryForecastIntoZeroAllocs(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "tenant", "stream", 6, 4*core.DefaultConfig().WindowSize)
	buf := make([]Forecast, 0, DefaultHorizon)
	allocs := testing.AllocsPerRun(1000, func() {
		var ok bool
		buf, _, ok = r.ForecastInto(buf[:0], "tenant", "stream", DefaultHorizon)
		if !ok {
			t.Fatal("session disappeared")
		}
	})
	if allocs != 0 {
		t.Errorf("ForecastInto with a reused buffer allocates %.2f objects per query, want 0", allocs)
	}
}
