package mpipredict_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"mpipredict"
)

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
	for _, pred := range p.PredictSeries(5) {
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
	for _, f := range mp.Forecast(3) {
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
				expected := forecaster.Forecast(1)[0]
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
