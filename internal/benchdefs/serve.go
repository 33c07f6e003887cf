package benchdefs

// The serve benchmark bodies: a standing prediction service with one
// locked session, driven through the real HTTP handler (httptest
// recorders, no sockets) or the registry directly. Shared by
// internal/serve/bench_test.go and cmd/benchjson so the committed
// BENCH_<n>.json throughput numbers measure exactly what
// `go test -bench .` measures.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mpipredict/internal/core"
	"mpipredict/internal/serve"
)

// ServeBenchPeriod is the sender/size period of the benchmark session's
// stream — 18, the BT.9 iteration pattern length the paper's Figure 1
// detects.
const ServeBenchPeriod = 18

// ServeBenchBatch is the events-per-request of the batched observe
// benchmark, matching the replay ingester's default.
const ServeBenchBatch = 64

// ServeBenchEnv is a warmed prediction service: one session, locked onto
// a periodic stream, ready for steady-state observe/predict measurement.
type ServeBenchEnv struct {
	Registry *serve.Registry
	Handler  http.Handler

	observeBodies [ServeBenchPeriod][]byte
	batchBody     []byte
	columnarBody  []byte
	blockSenders  []int64
	blockSizes    []int64
	predictURL    string
}

// NewServeBenchEnv builds the environment and warms the session past the
// locking transient, so benchmarks measure the locked steady state.
func NewServeBenchEnv() *ServeBenchEnv {
	return NewServeBenchEnvFor("")
}

// NewServeBenchEnvFor is NewServeBenchEnv with an explicit default
// prediction strategy ("" = the registry default, dpd). The wire-vs-HTTP
// comparison benchmarks pin a cheap strategy so they measure protocol
// cost rather than model cost; NewServeBenchEnvFor(strategy) provides
// the matching HTTP twin.
func NewServeBenchEnvFor(strategy string) *ServeBenchEnv {
	reg := serve.NewRegistry(serve.Config{Strategy: strategy})
	env := &ServeBenchEnv{
		Registry:   reg,
		Handler:    serve.NewServer(reg),
		predictURL: "/v1/predict?tenant=bench&stream=s&k=5",
	}
	for i := range env.observeBodies {
		env.observeBodies[i] = []byte(fmt.Sprintf(
			`{"tenant":"bench","stream":"s","events":[{"sender":%d,"size":%d}]}`,
			i%ServeBenchPeriod, 100*(i%ServeBenchPeriod)))
	}
	var buf bytes.Buffer
	buf.WriteString(`{"tenant":"bench","stream":"s","events":[`)
	for i := 0; i < ServeBenchBatch; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"sender":%d,"size":%d}`, i%ServeBenchPeriod, 100*(i%ServeBenchPeriod))
	}
	buf.WriteString(`]}`)
	env.batchBody = buf.Bytes()

	// The same 64 events in the columnar shape the block pipeline posts.
	env.blockSenders = make([]int64, ServeBenchBatch)
	env.blockSizes = make([]int64, ServeBenchBatch)
	var cbuf bytes.Buffer
	cbuf.WriteString(`{"tenant":"bench","stream":"s","senders":[`)
	for i := 0; i < ServeBenchBatch; i++ {
		env.blockSenders[i] = int64(i % ServeBenchPeriod)
		env.blockSizes[i] = int64(100 * (i % ServeBenchPeriod))
		if i > 0 {
			cbuf.WriteByte(',')
		}
		fmt.Fprintf(&cbuf, "%d", env.blockSenders[i])
	}
	cbuf.WriteString(`],"sizes":[`)
	for i := 0; i < ServeBenchBatch; i++ {
		if i > 0 {
			cbuf.WriteByte(',')
		}
		fmt.Fprintf(&cbuf, "%d", env.blockSizes[i])
	}
	cbuf.WriteString(`]}`)
	env.columnarBody = cbuf.Bytes()

	// Warm for a whole number of pattern repetitions, so a benchmark loop
	// starting at event 0 continues the stream in phase and the session
	// stays locked throughout the measurement.
	for i := 0; i < serveWarmEvents(); i++ {
		env.ObserveDirect(i)
	}
	return env
}

// serveWarmEvents is the warm-up length of the serving benchmarks: four
// detection windows, rounded down to a whole number of pattern periods
// so a benchmark loop starting at event 0 continues the stream in phase.
func serveWarmEvents() int {
	warm := 4 * core.DefaultConfig().WindowSize
	return warm - warm%ServeBenchPeriod
}

// ObserveDirect feeds event i of the periodic stream straight into the
// registry as a one-event block (the under-HTTP hot path, 0 allocs).
func (e *ServeBenchEnv) ObserveDirect(i int) {
	v := int64(i % ServeBenchPeriod)
	// A one-event block on the default strategy cannot be refused.
	e.Registry.ObserveBlockSeq("bench", "s", "", 0, []int64{v}, []int64{100 * v})
}

// ObserveHTTP posts one single-event observe request through the handler.
func (e *ServeBenchEnv) ObserveHTTP(i int) error {
	return e.post(e.observeBodies[i%ServeBenchPeriod])
}

// ObserveBatchHTTP posts one 64-event observe request through the
// handler. The batch restarts the pattern each request, which keeps the
// stream periodic (64 is not a multiple of 18, so phase bookkeeping in the
// body would otherwise be needed; the session relocks once and stays
// locked).
func (e *ServeBenchEnv) ObserveBatchHTTP(int) error {
	return e.post(e.batchBody)
}

// ObserveBlockHTTP posts the 64-event batch in columnar form — the body
// shape the block pipeline's replay ingester emits.
func (e *ServeBenchEnv) ObserveBlockHTTP(int) error {
	return e.post(e.columnarBody)
}

// ObserveBlockDirect feeds the 64-event columns straight into the
// registry — the under-HTTP block fast path (0 allocs per block).
func (e *ServeBenchEnv) ObserveBlockDirect(int) error {
	_, _, err := e.Registry.ObserveBlockSeq("bench", "s", "", 0, e.blockSenders, e.blockSizes)
	return err
}

func (e *ServeBenchEnv) post(body []byte) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	e.Handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("observe returned %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}

// PredictHTTP issues one +1..+5 predict query through the handler.
func (e *ServeBenchEnv) PredictHTTP() error {
	req := httptest.NewRequest(http.MethodGet, e.predictURL, nil)
	rec := httptest.NewRecorder()
	e.Handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("predict returned %d: %s", rec.Code, rec.Body.String())
	}
	io.Copy(io.Discard, rec.Body)
	return nil
}

// ReportThroughput attaches an ops/s metric derived from the elapsed
// time, so the JSON snapshots carry throughput alongside ns/op.
func ReportThroughput(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "ops/s")
	}
}

// ReportBatchThroughput reports events/s for the 64-event batch bench.
func ReportBatchThroughput(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*ServeBenchBatch)/s, "events/s")
	}
}
