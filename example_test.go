package mpipredict_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mpipredict"
)

// Simulate NAS BT on 9 processes and measure how well the DPD predicts
// the message streams of process 3, the process the paper traces, at
// both instrumentation levels: a single-workload version of Figures 3
// and 4. The body is the README's Quickstart.
func ExampleEvaluate() {
	res, err := mpipredict.Evaluate(
		mpipredict.WorkloadSpec{Name: "bt", Procs: 9},
		mpipredict.EvalOptions{Seed: 1},
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s on %d processes, traced receiver: rank %d\n", res.App, res.Procs, res.Receiver)
	fmt.Printf("logical +1 sender accuracy: %.1f%%\n",
		100*res.Accuracy(mpipredict.SenderStream, mpipredict.Logical, 1))
	fmt.Printf("physical +1 size accuracy: %.1f%%\n",
		100*res.Accuracy(mpipredict.SizeStream, mpipredict.Physical, 1))

	c := res.Characterization
	fmt.Printf("point-to-point messages: %d, collective messages: %d, frequent sizes: %d, frequent senders: %d\n",
		c.P2PMsgs, c.CollMsgs, c.MsgSizes, c.Senders)
	fmt.Println("prediction accuracy (+1 ... +5):")
	fmt.Printf("  logical  sender: %s\n", res.Sender[mpipredict.Logical])
	fmt.Printf("  physical sender: %s\n", res.Sender[mpipredict.Physical])
	fmt.Printf("  logical  size:   %s\n", res.Size[mpipredict.Logical])
	fmt.Printf("  physical size:   %s\n", res.Size[mpipredict.Physical])
	fmt.Printf("physical arrival order differs from program order at %.1f%% of positions\n", 100*res.Reordering)
	fmt.Printf("order-free accuracy of the next-5-senders forecast (physical level): %.1f%%\n", 100*res.SenderSetAccuracy)
	// Output:
	// bt on 9 processes, traced receiver: rank 3
	// logical +1 sender accuracy: 98.8%
	// physical +1 size accuracy: 98.8%
	// point-to-point messages: 3600, collective messages: 9, frequent sizes: 3, frequent senders: 6
	// prediction accuracy (+1 ... +5):
	//   logical  sender: +1:98.8% +2:98.8% +3:98.8% +4:98.8% +5:98.8%
	//   physical sender: +1:94.2% +2:94.1% +3:94.1% +4:94.1% +5:94.1%
	//   logical  size:   +1:98.8% +2:98.8% +3:98.8% +4:98.8% +5:98.8%
	//   physical size:   +1:98.8% +2:98.8% +3:98.8% +4:98.8% +5:98.8%
	// physical arrival order differs from program order at 31.0% of positions
	// order-free accuracy of the next-5-senders forecast (physical level): 97.6%
}

// Figure 1 of the paper: the iterative sender pattern of BT on 9
// processes, whose period the detector finds.
func ExampleFigure1() {
	fig, err := mpipredict.Figure1(mpipredict.EvalOptions{Seed: 1, Iterations: 30})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detected period of the BT.9 sender stream: %d, size stream: %d (paper: 18)\n", fig.SenderPeriod, fig.SizePeriod)
	fmt.Printf("first two periods of the sender stream: %v\n", fig.SenderExcerpt[:2*fig.SenderPeriod])
	// Output:
	// detected period of the BT.9 sender stream: 18, size stream: 18 (paper: 18)
	// first two periods of the sender stream: [4 5 0 6 7 2 5 5 4 4 0 0 6 6 2 2 7 7 4 5 0 6 7 2 5 5 4 4 0 0 6 6 2 2 7 7]
}

// The three scalability mechanisms of Section 2 on one trace. Instead of
// statically allocating one 16 KiB eager buffer per peer (156 MiB per
// process on a 10 000-process machine), the receiver allocates buffers
// only for the senders the predictor expects next (2.1), grants credits
// to the predicted senders (2.2) and skips the rendezvous handshake of
// predicted large messages (2.3).
func ExampleReplayBuffers() {
	fmt.Println("conventional per-peer eager buffers (16 KiB each), per process:")
	for _, procs := range []int{256, 1024, 10000} {
		mem := mpipredict.StaticBufferMemory(procs, 16*1024)
		fmt.Printf("  %6d processes -> %7.1f MiB\n", procs, float64(mem)/(1<<20))
	}

	// BT on 9 processes, the configuration of Figure 1. Its largest
	// messages exceed the 16 KiB eager limit, so all three mechanisms
	// have work to do.
	spec := mpipredict.WorkloadSpec{Name: "bt", Procs: 9}
	tr, err := mpipredict.RunWorkload(spec, mpipredict.DefaultNetworkConfig(), 7)
	if err != nil {
		log.Fatal(err)
	}
	receiver, err := mpipredict.TypicalReceiver(spec.Name, spec.Procs)
	if err != nil {
		log.Fatal(err)
	}

	buffers, err := mpipredict.ReplayBuffers(tr, receiver, mpipredict.BufferConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prediction-driven buffers on %s.%d (receiver rank %d):\n", spec.Name, spec.Procs, receiver)
	fmt.Printf("  messages processed:         %d\n", buffers.Messages)
	fmt.Printf("  fast-path (predicted) rate: %.1f%%\n", 100*buffers.FastPathRate())
	fmt.Printf("  peak simultaneous buffers:  %d (of %d peers)\n", buffers.PeakBuffers, spec.Procs-1)
	fmt.Printf("  peak buffer memory:         %.1f KiB (static scheme: %.1f KiB)\n",
		float64(buffers.PeakMemory)/1024, float64(buffers.StaticMemory)/1024)

	credits, err := mpipredict.ReplayCredits(tr, receiver, 0, mpipredict.CreditConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("credit-based flow control on the same trace:")
	fmt.Printf("  messages arriving with a pre-granted credit: %.1f%%\n", 100*credits.CreditedRate())
	fmt.Printf("  receiver memory exposure: %.1f KiB reserved vs %.1f KiB uncontrolled incast\n",
		float64(credits.PeakReservedBytes)/1024, float64(credits.UncontrolledExposureBytes)/1024)

	protocol, err := mpipredict.ReplayProtocol(tr, receiver, mpipredict.ProtocolConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rendezvous elimination on the same trace:")
	fmt.Printf("  large messages: %d of %d, handshakes eliminated: %.1f%%\n",
		protocol.LargeMessages, protocol.Messages, 100*protocol.EliminationRate())
	fmt.Printf("  summed message latency saved: %.1f%%\n", 100*protocol.LatencySavingFraction())
	// Output:
	// conventional per-peer eager buffers (16 KiB each), per process:
	//      256 processes ->     4.0 MiB
	//     1024 processes ->    16.0 MiB
	//    10000 processes ->   156.2 MiB
	// prediction-driven buffers on bt.9 (receiver rank 3):
	//   messages processed:         3609
	//   fast-path (predicted) rate: 96.3%
	//   peak simultaneous buffers:  5 (of 8 peers)
	//   peak buffer memory:         80.0 KiB (static scheme: 128.0 KiB)
	// credit-based flow control on the same trace:
	//   messages arriving with a pre-granted credit: 96.1%
	//   receiver memory exposure: 94.9 KiB reserved vs 151.9 KiB uncontrolled incast
	// rendezvous elimination on the same trace:
	//   large messages: 1200 of 3609, handshakes eliminated: 91.4%
	//   summed message latency saved: 11.3%
}

// Stream a recorded trace instead of holding it: simulate BT.9, save it
// as a columnar .mpts store, then evaluate the file block by block in
// constant memory — once as recorded, once through a seeded
// arrival-reordering perturbation composed onto the same file.
func ExampleEvaluateSource() {
	dir, err := os.MkdirTemp("", "evaluate-source-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bt9.mpts")

	spec := mpipredict.WorkloadSpec{Name: "bt", Procs: 9, Iterations: 10}
	tr, err := mpipredict.RunWorkload(spec, mpipredict.DefaultNetworkConfig(), 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := mpipredict.SaveTraceStore(path, tr); err != nil {
		log.Fatal(err)
	}
	receiver, err := mpipredict.TypicalReceiver(spec.Name, spec.Procs)
	if err != nil {
		log.Fatal(err)
	}

	// The opener hands EvaluateSource a fresh pass whenever it needs one.
	recorded := func() (mpipredict.EventSource, error) { return mpipredict.OpenTraceSource(path) }
	noisy := func() (mpipredict.EventSource, error) {
		src, err := mpipredict.OpenTraceSource(path)
		if err != nil {
			return nil, err
		}
		return mpipredict.PerturbSource(src, mpipredict.PerturbConfig{
			SwapProbability: 0.1,
			PhysicalOnly:    true,
			Seed:            7,
		}), nil
	}
	pristine, err := mpipredict.EvaluateSource(recorded, receiver, mpipredict.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	perturbed, err := mpipredict.EvaluateSource(noisy, receiver, mpipredict.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d events of %s.%d\n", tr.Len(), spec.Name, spec.Procs)
	fmt.Printf("pristine physical sender accuracy:  %s\n", pristine.Sender[mpipredict.Physical])
	fmt.Printf("perturbed physical sender accuracy: %s\n", perturbed.Sender[mpipredict.Physical])
	fmt.Printf("logical sender accuracy is untouched: %v\n",
		pristine.Sender[mpipredict.Logical].Mean() == perturbed.Sender[mpipredict.Logical].Mean())
	// Output:
	// recorded 378 events of bt.9
	// pristine physical sender accuracy:  +1:69.3% +2:68.6% +3:68.4% +4:68.3% +5:68.6%
	// perturbed physical sender accuracy: +1:26.5% +2:25.5% +3:25.1% +4:25.3% +5:25.9%
	// logical sender accuracy is untouched: true
}

// The sharded serving tier that cmd/mpigateway hosts, in one process:
// three prediction daemons behind the cluster gateway, driven through
// the gateway's single-daemon HTTP surface. Observes route to each
// session's rendezvous-hash owner, predicts follow them, and the session
// listing fans out to every backend and merges. Then the operational
// half: partition a single node's snapshot across the cluster (the
// migration step of a shard-map change) and keep answering, degraded
// but usable, while one backend is down. The backends are served
// in-process through the gateway's HTTP client, so the run needs no
// sockets and its output is the same every time.
func ExampleNewClusterGateway() {
	backends := []string{"http://backend-0", "http://backend-1", "http://backend-2"}
	registries := make(map[string]*mpipredict.ServeRegistry)
	servers := make(map[string]*mpipredict.ServeServer)
	for _, base := range backends {
		registries[base] = mpipredict.NewServeRegistry(mpipredict.ServeConfig{})
		servers[base] = mpipredict.NewServeServer(registries[base])
	}
	down := ""
	transport := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		base := r.URL.Scheme + "://" + r.URL.Host
		if base == down {
			return nil, errors.New("connection refused")
		}
		req := r.Clone(r.Context())
		if req.Body == nil {
			req.Body = http.NoBody
		}
		rec := httptest.NewRecorder()
		servers[base].ServeHTTP(rec, req)
		return rec.Result(), nil
	})

	shards, err := mpipredict.NewShardMap(backends)
	if err != nil {
		log.Fatal(err)
	}
	gateway := mpipredict.NewClusterGateway(shards, mpipredict.ClusterOptions{
		Client:     &http.Client{Transport: transport},
		MaxRetries: 1,
		RetryBase:  time.Millisecond,
	})
	call := func(method, url string, body []byte, into interface{}) {
		rec := httptest.NewRecorder()
		gateway.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			log.Fatalf("%s %s: %d %s", method, url, rec.Code, rec.Body)
		}
		if into != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
				log.Fatal(err)
			}
		}
	}

	// --- Observe eight tenants' halo exchanges through one front door. ---
	senders := []int64{1, 2, 3, 1, 2, 3}
	sizes := []int64{512, 512, 512, 65536, 65536, 65536}
	for t := 0; t < 8; t++ {
		var events []mpipredict.ServeEvent
		for round := 0; round < 100; round++ {
			for i := range senders {
				events = append(events, mpipredict.ServeEvent{Sender: senders[i], Size: sizes[i]})
			}
		}
		body, err := json.Marshal(map[string]interface{}{
			"tenant": fmt.Sprintf("app.%d", t), "stream": "rank0/physical", "events": events,
		})
		if err != nil {
			log.Fatal(err)
		}
		call(http.MethodPost, "/v1/observe", body, nil)
	}
	for _, base := range backends {
		fmt.Printf("%s owns %d sessions\n", base, registries[base].Len())
	}

	// --- Predict through the gateway: routed to the same owner. ---
	var predicted struct {
		Forecasts []mpipredict.ServeForecast `json:"forecasts"`
	}
	call(http.MethodGet, "/v1/predict?tenant=app.0&stream=rank0/physical&k=3", nil, &predicted)
	fmt.Println("forecast for app.0:")
	for _, f := range predicted.Forecasts {
		fmt.Printf("  +%d: sender %d, %d bytes\n", f.Ahead, f.Sender, f.Size)
	}

	// --- The merged session listing fans out to every backend. ---
	var listing struct {
		Total    int  `json:"total"`
		Degraded bool `json:"degraded"`
	}
	call(http.MethodGet, "/v1/sessions?limit=5", nil, &listing)
	fmt.Printf("cluster sessions: %d total, degraded=%v\n", listing.Total, listing.Degraded)

	// --- Migration: a single node's snapshot, partitioned by shard. ---
	// This is what `mpigateway -migrate state.mps` does: split a drained
	// daemon's checkpoint and restore each part to its owner.
	single := mpipredict.NewServeRegistry(mpipredict.ServeConfig{})
	for i := 0; i < 6; i++ {
		if _, _, err := single.ObserveBlockSeq(fmt.Sprintf("legacy.%d", i), "r0/physical", "", 0, []int64{1}, []int64{256}); err != nil {
			log.Fatal(err)
		}
	}
	counts, err := gateway.RestoreToCluster(context.Background(), single.SnapshotSessions())
	if err != nil {
		log.Fatal(err)
	}
	for _, base := range backends {
		fmt.Printf("migrated %d legacy sessions to %s\n", counts[base], base)
	}

	// --- Partial failure: one backend down, the cluster stays usable. ---
	down = backends[0]
	call(http.MethodGet, "/v1/sessions?limit=5", nil, &listing)
	fmt.Printf("with %s down: %d sessions listed, degraded=%v\n", down, listing.Total, listing.Degraded)
	// Output:
	// http://backend-0 owns 2 sessions
	// http://backend-1 owns 4 sessions
	// http://backend-2 owns 2 sessions
	// forecast for app.0:
	//   +1: sender 1, 512 bytes
	//   +2: sender 2, 512 bytes
	//   +3: sender 3, 512 bytes
	// cluster sessions: 8 total, degraded=false
	// migrated 1 legacy sessions to http://backend-0
	// migrated 3 legacy sessions to http://backend-1
	// migrated 2 legacy sessions to http://backend-2
	// with http://backend-0 down: 11 sessions listed, degraded=true
}

// Feed a message stream to the DPD predictor and ask for the next five
// values, exactly the prediction task of the paper.
func ExampleNewPredictor() {
	// The sender stream Figure 1a of the paper shows for process 3 of
	// BT.9: five partner ranks in a fixed order, repeating every 18
	// messages.
	pattern := []int64{1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 7}

	p := mpipredict.NewPredictor(mpipredict.DefaultPredictorConfig())

	// Replay a few iterations of the application: the predictor learns the
	// period online.
	for i := 0; i < 6*len(pattern); i++ {
		p.Observe(pattern[i%len(pattern)])
	}

	period, ok := p.Period()
	fmt.Printf("periodicity detected: %v, period = %d messages\n", ok, period)

	fmt.Println("next five senders predicted (+1 ... +5):")
	for _, pred := range p.PredictSeriesInto(nil, 5) {
		if pred.OK {
			fmt.Printf("  +%d -> rank %d\n", pred.Ahead, pred.Value)
		} else {
			fmt.Printf("  +%d -> no prediction yet\n", pred.Ahead)
		}
	}
	// Output:
	// periodicity detected: true, period = 18 messages
	// next five senders predicted (+1 ... +5):
	//   +1 -> rank 1
	//   +2 -> rank 2
	//   +3 -> rank 5
	//   +4 -> rank 7
	//   +5 -> rank 9
}

// The same API drives joint sender+size forecasts, which is what the
// scalability mechanisms of Section 2 consume.
func ExampleNewMessagePredictor() {
	pattern := []int64{1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 7}
	sizes := []int64{3240, 10240, 19440}

	mp := mpipredict.NewMessagePredictor(mpipredict.DefaultPredictorConfig())
	for i := 0; i < 120; i++ {
		mp.Observe(int(pattern[i%len(pattern)]), sizes[i%len(sizes)])
	}
	fmt.Println("next three messages (sender, size):")
	for _, f := range mp.ForecastInto(nil, 3) {
		fmt.Printf("  +%d -> from rank %d, %d bytes (ok=%v)\n", f.Ahead, f.Sender, f.Size, f.OK)
	}
	// Output:
	// next three messages (sender, size):
	//   +1 -> from rank 5, 3240 bytes (ok=true)
	//   +2 -> from rank 7, 10240 bytes (ok=true)
	//   +3 -> from rank 9, 19440 bytes (ok=true)
}

// Online prediction inside a simulated MPI program: the receiving rank
// forecasts who will send next and how many bytes, the way a
// prediction-enabled MPI library would (Section 2.3: pre-allocate and
// pre-grant before the sender even knows it will send).
func ExampleRunProgram() {
	const procs = 5
	const rounds = 40

	forecastHits := 0
	forecastTotal := 0

	cfg := mpipredict.RuntimeConfig{
		App:   "online-example",
		Procs: procs,
		Net:   mpipredict.DefaultNetworkConfig(),
		Seed:  11,
	}

	_, err := mpipredict.RunProgram(cfg, func(r *mpipredict.Rank) {
		// Rank 0 collects a halo from every worker each round; the workers
		// alternate between a small flag and a large block, so both the
		// sender and the size stream are periodic.
		if r.ID() != 0 {
			for round := 0; round < rounds; round++ {
				r.Compute(50 * float64(r.ID()))
				size := int64(512)
				if round%2 == 1 {
					size = 64 * 1024
				}
				r.Send(0, 1, size)
			}
			return
		}

		forecaster := mpipredict.NewMessagePredictor(mpipredict.DefaultPredictorConfig())
		for round := 0; round < rounds; round++ {
			for src := 1; src < procs; src++ {
				// Before posting the receive, ask the forecaster what it
				// expects: a prediction-enabled library would use this to
				// pre-allocate the buffer and pre-grant the send.
				expected := forecaster.ForecastInto(nil, 1)[0]
				msg := r.Recv(src, 1)
				if expected.OK {
					forecastTotal++
					if expected.Sender == msg.Sender && expected.Size == msg.Size {
						forecastHits++
					}
				}
				forecaster.Observe(msg.Sender, msg.Size)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("forecasts issued while the program ran: %d\n", forecastTotal)
	if forecastTotal > 0 {
		fmt.Printf("forecasts that matched the next message exactly (sender and size): %.1f%%\n",
			100*float64(forecastHits)/float64(forecastTotal))
	}
	fmt.Println("a prediction-enabled MPI library would have pre-allocated the large blocks and skipped their rendezvous handshakes")
	// Output:
	// forecasts issued while the program ran: 152
	// forecasts that matched the next message exactly (sender and size): 89.5%
	// a prediction-enabled MPI library would have pre-allocated the large blocks and skipped their rendezvous handshakes
}

// Evaluate every registered prediction strategy side by side on the NAS
// BT benchmark: the accuracy table that quantifies the paper's claim that
// DPD-based prediction beats the simpler schemes.
func ExampleCompareStrategies() {
	// One BT instance is enough to see the ordering; the full grid is
	// cmd/mpipredict -experiment compare. A reduced iteration count keeps
	// the example quick — accuracy converges within a few periods.
	specs := []mpipredict.WorkloadSpec{{Name: "bt", Procs: 9}}
	cmp, err := mpipredict.CompareStrategies(nil, specs, mpipredict.EvalOptions{Seed: 1, Iterations: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(mpipredict.FormatStrategyComparison(cmp))

	// The same registry serves individual strategies for custom loops.
	fmt.Println("\nregistered strategies:")
	for _, name := range mpipredict.Strategies() {
		s, err := mpipredict.NewStrategy(name, mpipredict.DefaultPredictorConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", s.Desc())
	}
	// Output:
	// Strategy comparison — mean +1..+5 sender accuracy, % (logical | physical)
	// app      procs             dpd       lastvalue         markov1            meta
	// bt           9    88.3 |  82.9     9.9 |   7.9    14.3 |  20.5    87.2 |  81.7
	//
	// registered strategies:
	//   dpd(window=512 maxlag=192 confirm=3 holddown=6)
	//   lastvalue
	//   markov1(max-values=1024)
	//   meta(experts=dpd+lastvalue+markov1 window=64 margin=3 horizons=5)
}

// Serve the predictor online, as cmd/mpipredictd does: observe a periodic
// message stream over the HTTP API the way an MPI runtime reports its
// receives, query multi-step forecasts, checkpoint the learned state and
// warm-restart a second registry from the snapshot, which then predicts
// without relearning. httptest recorders stand in for a socket.
func ExampleNewServeServer() {
	// A 6-rank halo exchange: the receiver hears from the same neighbours
	// in the same order every iteration, alternating flag and block sizes.
	senders := []int64{1, 2, 3, 1, 2, 3}
	sizes := []int64{512, 512, 512, 65536, 65536, 65536}

	registry := mpipredict.NewServeRegistry(mpipredict.ServeConfig{})
	server := mpipredict.NewServeServer(registry)
	call := func(method, url string, body []byte) []byte {
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			log.Fatalf("%s %s: %d %s", method, url, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	// --- Observe: the runtime reports receives in batches of 60 events. ---
	var reply []byte
	for batch := 0; batch < 40; batch++ {
		var events []mpipredict.ServeEvent
		for round := 0; round < 10; round++ {
			for i := range senders {
				events = append(events, mpipredict.ServeEvent{Sender: senders[i], Size: sizes[i]})
			}
		}
		body, err := json.Marshal(map[string]interface{}{
			"tenant": "halo-app", "stream": "rank0/physical", "events": events,
		})
		if err != nil {
			log.Fatal(err)
		}
		reply = call(http.MethodPost, "/v1/observe", body)
	}
	fmt.Printf("last observe reply: %s", reply)

	// --- Predict: who sends the next 6 messages, and how many bytes? ---
	var predicted struct {
		Observed  int64                      `json:"observed"`
		Forecasts []mpipredict.ServeForecast `json:"forecasts"`
	}
	if err := json.Unmarshal(call(http.MethodGet, "/v1/predict?tenant=halo-app&stream=rank0/physical&k=6", nil), &predicted); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forecast after %d events:\n", predicted.Observed)
	for _, f := range predicted.Forecasts {
		fmt.Printf("  +%d: sender %d, %d bytes (ok=%v)\n", f.Ahead, f.Sender, f.Size, f.OK)
	}

	// --- Checkpoint every session's learned state to a snapshot file. ---
	dir, err := os.MkdirTemp("", "serve-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "state.mps")
	if err := mpipredict.SaveSessionSnapshots(path, registry.SnapshotSessions()); err != nil {
		log.Fatal(err)
	}

	// --- Warm restart: a brand-new registry, primed from the snapshot. ---
	sessions, err := mpipredict.LoadSessionSnapshots(path)
	if err != nil {
		log.Fatal(err)
	}
	restarted := mpipredict.NewServeRegistry(mpipredict.ServeConfig{})
	if err := restarted.RestoreSessions(sessions); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored %d session(s) from %s\n", len(sessions), filepath.Base(path))
	fc, _, ok := restarted.ForecastInto(nil, "halo-app", "rank0/physical", 3)
	if !ok {
		log.Fatal("restored registry lost the session")
	}
	fmt.Println("restarted registry forecasts at once:")
	for _, f := range fc {
		fmt.Printf("  +%d: sender %d, %d bytes (ok=%v)\n", f.Ahead, f.Sender, f.Size, f.OK)
	}
	// Output:
	// last observe reply: {"observed":60,"session_observed":2400,"duplicate":false}
	// forecast after 2400 events:
	//   +1: sender 1, 512 bytes (ok=true)
	//   +2: sender 2, 512 bytes (ok=true)
	//   +3: sender 3, 512 bytes (ok=true)
	//   +4: sender 1, 65536 bytes (ok=true)
	//   +5: sender 2, 65536 bytes (ok=true)
	//   +6: sender 3, 65536 bytes (ok=true)
	// restored 1 session(s) from state.mps
	// restarted registry forecasts at once:
	//   +1: sender 1, 512 bytes (ok=true)
	//   +2: sender 2, 512 bytes (ok=true)
	//   +3: sender 3, 512 bytes (ok=true)
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
