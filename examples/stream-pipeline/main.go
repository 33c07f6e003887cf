// Example stream-pipeline demonstrates the batched event pipeline
// (internal/stream): events flow from producers to consumers in columnar
// EventBlocks, and scenarios are composed from small transforms instead
// of materialized traces.
//
// The pipeline built here:
//
//  1. a simulated workload is streamed straight into the columnar store
//     writer (constant memory — the trace never exists as a whole),
//  2. the exported file is evaluated by streaming it through the scorers
//     (evalx.EvaluateSource — identical numbers to the in-memory path),
//  3. a robustness scenario is composed on the fly: the same file with
//     seeded arrival-order noise, plus a second synthetic
//     stream merged in — then evaluated without ever building a trace.
//
// The same flows are available from the command line:
//
//	tracegen -workload bt -procs 9 -stream -o bt9.mpts
//	tracegen -events 100000000 -period 18 -stream -o big.mpts
//	mpipredict -trace bt9.mpts -experiment figure4
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mpipredict/internal/evalx"
	"mpipredict/internal/simnet"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/workloads"
)

func main() {
	dir, err := os.MkdirTemp("", "stream-pipeline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bt9.mpts")

	// 1. Simulate and export in one streaming pass: the simulator emits
	// blocks, the store writer encodes them — the trace is never
	// materialized.
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w, err := tracestore.NewWriter(f, "bt", 9)
	if err != nil {
		log.Fatal(err)
	}
	rc := workloads.RunConfig{
		Spec: workloads.Spec{Name: "bt", Procs: 9, Iterations: 10},
		Net:  simnet.DefaultConfig(),
		Seed: 1,
	}
	if err := workloads.RunToSink(rc, stream.SinkTo(w)); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed bt.9 export: %s\n", path)

	// 2. Evaluate the file by streaming it through the scorers. The
	// opener hands EvaluateSource a fresh pass whenever it needs one;
	// memory stays constant no matter how long the trace is.
	receiver, err := workloads.TypicalReceiver("bt", 9)
	if err != nil {
		log.Fatal(err)
	}
	res, err := evalx.EvaluateSource(stream.FileOpener(path), receiver, evalx.Options{NoCache: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pristine physical sender accuracy:  %s\n", res.Sender[trace.Physical])

	// 3. Compose a robustness scenario: the recorded arrivals with
	// seeded arrival reordering, merged with a synthetic interferer on
	// a disjoint receiver — all lazily, block by block.
	noisy := func() (stream.Source, error) {
		src, err := stream.OpenFile(path)
		if err != nil {
			return nil, err
		}
		perturbed := stream.Perturb(src, stream.PerturbConfig{
			SwapProbability: 0.1,
			PhysicalOnly:    true,
			Seed:            7,
		})
		interferer := stream.SynthSource(trace.SynthConfig{
			App: "interferer", Procs: 9, Receiver: 1000,
			Pattern:     []trace.SynthMessage{{Sender: 1001, Size: 512}, {Sender: 1002, Size: 1024}},
			Repetitions: 500,
		})
		return stream.Merge(perturbed, interferer), nil
	}
	noisyRes, err := evalx.EvaluateSource(noisy, receiver, evalx.Options{NoCache: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("perturbed physical sender accuracy: %s\n", noisyRes.Sender[trace.Physical])
	fmt.Printf("accuracy delta under noise: %+.1f points\n",
		100*(noisyRes.Sender[trace.Physical].Mean()-res.Sender[trace.Physical].Mean()))

	// The interferer's stream is untouched by the merge: evaluating its
	// receiver inside the composed scenario scores it in isolation.
	interfererRes, err := evalx.EvaluateSource(noisy, 1000, evalx.Options{NoCache: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interferer logical sender accuracy: %s\n", interfererRes.Sender[trace.Logical])
}
