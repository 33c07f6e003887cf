package mpipredict

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"mpipredict/internal/serve"
	"mpipredict/internal/simnet"
	"mpipredict/internal/stream"
	"mpipredict/internal/wire"
)

func TestFacadePredictors(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	for i := 0; i < 60; i++ {
		p.Observe(int64(i % 3))
	}
	if v, ok := p.Predict(1); !ok || v != 0 {
		t.Errorf("facade predictor Predict(1)=%d,%v want 0,true", v, ok)
	}
	mp := NewMessagePredictor(DefaultPredictorConfig())
	for i := 0; i < 100; i++ {
		mp.Observe(1+i%2, int64(100*(1+i%2)))
	}
	fc := mp.ForecastInto(nil, 2)
	if !fc[0].OK || !fc[1].OK {
		t.Errorf("message forecast should be available: %+v", fc)
	}
}

func TestFacadeWorkloadsAndEvaluation(t *testing.T) {
	recv, err := TypicalReceiver("bt", 9)
	if err != nil || recv != 3 {
		t.Errorf("TypicalReceiver(bt,9)=%d,%v want 3 (the paper traces process 3)", recv, err)
	}

	spec := WorkloadSpec{Name: "bt", Procs: 4, Iterations: 15}
	tr, err := RunWorkload(spec, DefaultNetworkConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("workload trace is empty")
	}

	res, err := Evaluate(spec, EvalOptions{Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "bt" || res.Procs != 4 {
		t.Errorf("metadata wrong: %+v", res)
	}
	if res.Accuracy(SenderStream, Logical, 1) < 0.7 {
		t.Errorf("logical accuracy too low: %.3f", res.Accuracy(SenderStream, Logical, 1))
	}
}

func TestFacadeRunProgramAndTraceIO(t *testing.T) {
	cfg := RuntimeConfig{App: "facade", Procs: 2, Net: DefaultNetworkConfig()}
	tr, err := RunProgram(cfg, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 128)
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// The columnar store round-trips through the facade: save as .mpts,
	// stream it back through OpenTraceSource.
	storePath := filepath.Join(t.TempDir(), "trace.mpts")
	if err := SaveTraceStore(storePath, tr); err != nil {
		t.Fatal(err)
	}
	src, err := OpenTraceSource(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close(src)
	fromStore, err := stream.Gather(src)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore.Len() != tr.Len() {
		t.Errorf("store round-trip changed record count: %d vs %d", fromStore.Len(), tr.Len())
	}
}

func TestFacadeScalabilityReplay(t *testing.T) {
	tr, err := RunWorkload(WorkloadSpec{Name: "bt", Procs: 4, Iterations: 25}, DefaultNetworkConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	recv, _ := TypicalReceiver("bt", 4)
	buf, err := ReplayBuffers(tr, recv, BufferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Messages == 0 {
		t.Error("buffer replay processed no messages")
	}
	cred, err := ReplayCredits(tr, recv, 0, CreditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cred.Messages != buf.Messages {
		t.Error("credit replay should process the same messages")
	}
	prot, err := ReplayProtocol(tr, recv, ProtocolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prot.BaselineLatencyUS <= 0 {
		t.Error("protocol replay should accumulate latency")
	}
	if StaticBufferMemory(10000, 16*1024) != int64(9999)*16*1024 {
		t.Error("StaticBufferMemory wrong")
	}
}

func TestFacadeFigure1SmallRun(t *testing.T) {
	fig, err := Figure1(EvalOptions{Net: simnet.NoiselessConfig(), Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	if fig.SenderPeriod != 18 || fig.SizePeriod != 18 {
		t.Errorf("Figure 1 periods=%d/%d want 18/18", fig.SenderPeriod, fig.SizePeriod)
	}
}

func TestFacadeServing(t *testing.T) {
	reg := NewServeRegistry(ServeConfig{})
	for i := 0; i < 3000; i++ {
		if _, _, err := reg.ObserveBlockSeq("tenant", "stream", "", 0, []int64{int64(i % 4)}, []int64{int64(10 * (i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	fc, observed, ok := reg.ForecastInto(nil, "tenant", "stream", 3)
	if !ok || observed != 3000 || len(fc) != 3 {
		t.Fatalf("forecast = (%d forecasts, observed %d, ok %v)", len(fc), observed, ok)
	}
	if !fc[0].OK {
		t.Error("warmed session should forecast")
	}
	rec := httptest.NewRecorder()
	NewServeServer(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/predict?tenant=tenant&stream=stream&k=3", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("server over the registry answered %d to a predict for its session", rec.Code)
	}

	path := filepath.Join(t.TempDir(), "state.mps")
	if err := SaveSessionSnapshots(path, reg.SnapshotSessions()); err != nil {
		t.Fatal(err)
	}
	sessions, err := LoadSessionSnapshots(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("loaded %d sessions, want 1", len(sessions))
	}
}

// TestFacadeWire walks the binary transport end to end over a facade
// server: a wire listener over a served registry, a pipelined client
// observing and predicting, and the load generator reporting its
// throughput. The transport itself is not exported, so the test drives
// internal/serve and internal/wire directly.
func TestFacadeWire(t *testing.T) {
	reg := NewServeRegistry(ServeConfig{})
	srv := NewServeServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := serve.NewWireServer(srv)
	srv.SetWireAddr(ln.Addr().String())
	go ws.Serve(ln)
	defer ws.Close()

	ctx := context.Background()
	c, err := wire.Dial(ctx, ln.Addr().String(), wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	senders, sizes := make([]int64, 64), make([]int64, 64)
	for seq := int64(1); seq <= 50; seq++ {
		for i := range senders {
			p := (int(seq-1)*len(senders) + i) % 4
			senders[i], sizes[i] = int64(p), int64(10*p)
		}
		if err := c.ObserveBlock(ctx, "tenant", "stream", "", seq, senders, sizes); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.SendPredict(ctx, 0, "tenant", "stream", 3); err != nil {
		t.Fatal(err)
	}
	resp, err := c.NextPredict(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Observed != 50*64 || len(resp.Forecasts) != 3 {
		t.Fatalf("wire predict = found %v, observed %d, %d forecasts", resp.Found, resp.Observed, len(resp.Forecasts))
	}

	// The load generator probes the HTTP surface for the wire advert
	// published above.
	hts := httptest.NewServer(srv)
	defer hts.Close()
	stats, err := serve.LoadGen(ctx, hts.URL, serve.LoadGenOptions{Events: 2048, Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 2048 || stats.Transport != "wire" || stats.EventsPerSec() <= 0 {
		t.Fatalf("loadgen stats = %+v, want 2048 wire-delivered events", stats)
	}
}
