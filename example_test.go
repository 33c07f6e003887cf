package mpipredict_test

import (
	"fmt"
	"log"

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
