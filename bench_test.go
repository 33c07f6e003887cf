package mpipredict

// This file is the benchmark harness that regenerates every table and
// figure of the paper's evaluation, plus the analyses of Section 2 and the
// related-work comparison of Section 6 (in baseline_test.go, beside its
// baselines). Each benchmark runs the full
// class-A-scale experiment once per iteration and attaches the headline
// quantity of the corresponding table/figure as a custom benchmark metric,
// so `go test -bench . -benchmem` both times the experiments and reports
// the reproduced numbers. The textual tables themselves are produced by
// cmd/mpipredict.

import (
	"testing"

	"mpipredict/internal/benchdefs"
	"mpipredict/internal/evalx"
	"mpipredict/internal/strategy"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracecache"
	"mpipredict/internal/workloads"
)

// benchOpts selects the default experiment configuration: the parallel
// runner (Parallelism 0 = GOMAXPROCS) over the shared trace cache, so one
// `go test -bench .` run simulates each (workload, procs, seed) cell once
// and every table/figure that needs it reuses the trace. The reproduced
// numbers are identical to the serial, uncached path — see
// BenchmarkFigure3LogicalColdSerial for the seed-equivalent configuration.
// The option sets and metric computations live in internal/benchdefs,
// shared with cmd/benchjson so the tracked trajectory cannot drift.
func benchOpts() EvalOptions {
	return benchdefs.Opts()
}

func reportMetrics(b *testing.B, metrics map[string]float64) {
	for name, value := range metrics {
		b.ReportMetric(value, name)
	}
}

// BenchmarkTable1 regenerates Table 1: the per-process message
// characterisation of every benchmark and process count. The reported
// metric is the mean relative error of the point-to-point message count
// against the paper's values.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := benchdefs.Table1Metrics(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportMetrics(b, m)
	}
}

// BenchmarkFigure1 regenerates Figure 1: the iterative sender and size
// pattern of BT on 9 processes at process 3. The metric is the detected
// period (the paper reports 18).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := benchdefs.Figure1Metrics(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportMetrics(b, m)
	}
}

// BenchmarkFigure2 regenerates Figure 2: the logical vs physical sender
// stream of BT on 4 processes. The metric is the percentage of positions
// at which the physical arrival order deviates from the logical order.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := benchdefs.Figure2Metrics(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportMetrics(b, m)
	}
}

// BenchmarkFigure3Logical regenerates Figure 3: +1..+5 prediction accuracy
// of the logical communication for every benchmark and process count. The
// metrics are the mean and minimum accuracy across all cells.
func BenchmarkFigure3Logical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logical, _, err := benchdefs.Figures34(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportMetrics(b, benchdefs.Figure3LogicalMetrics(logical))
	}
}

// BenchmarkFigure3LogicalColdSerial is BenchmarkFigure3Logical without the
// parallel runner and without the trace cache: every iteration re-simulates
// the full paper grid serially, like the seed implementation. The ratio
// between this benchmark and BenchmarkFigure3Logical is the speedup the
// concurrent experiment engine delivers.
func BenchmarkFigure3LogicalColdSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logical, _, err := benchdefs.Figures34(benchdefs.ColdSerialOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportMetrics(b, benchdefs.Figure3LogicalMetrics(logical))
	}
}

// BenchmarkFigure4Physical regenerates Figure 4: +1..+5 prediction
// accuracy of the physical communication. The metrics are the mean
// accuracy per benchmark, which exposes the ordering the paper describes
// (LU/CG/Sweep3D stay predictable, BT degrades, IS is the hardest).
func BenchmarkFigure4Physical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, physical, err := benchdefs.Figures34(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportMetrics(b, benchdefs.Figure4PhysicalMetrics(physical))
	}
}

// BenchmarkSetAccuracy regenerates the Section 5.3 observation: the
// order-free accuracy of the next-five-senders forecast at the physical
// level remains useful even when the exact order does not.
func BenchmarkSetAccuracy(b *testing.B) {
	specs := []WorkloadSpec{{Name: "bt", Procs: 9}, {Name: "lu", Procs: 4}, {Name: "is", Procs: 8}}
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			res, err := Evaluate(spec, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.SenderSetAccuracy, spec.Name+"-set-%")
		}
	}
}

// BenchmarkMemoryReduction regenerates the Section 2.1 analysis:
// prediction-driven buffer allocation versus one 16 KB buffer per peer.
// Metrics: the fast-path rate and the memory reduction factor on the BT.25
// trace, plus the static memory a 10 000-process job would need (MiB).
func BenchmarkMemoryReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := tracecache.Shared.Get(workloads.RunConfig{Spec: WorkloadSpec{Name: "bt", Procs: 25}, Net: DefaultNetworkConfig(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		recv, _ := TypicalReceiver("bt", 25)
		stats, err := ReplayBuffers(tr, recv, BufferConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*stats.FastPathRate(), "fastpath-%")
		b.ReportMetric(stats.MemoryReductionFactor(), "memory-reduction-x")
		b.ReportMetric(float64(StaticBufferMemory(10000, 16*1024))/(1<<20), "static-10000procs-MiB")
	}
}

// BenchmarkControlFlow regenerates the Section 2.2 analysis: credit-based
// flow control on a point-to-point benchmark with many peers (BT.25) and
// on the collective-dominated IS trace (the incast case). The IS number
// documents the limit of the mechanism when the physical arrival order is
// unpredictable.
func BenchmarkControlFlow(b *testing.B) {
	specs := []WorkloadSpec{{Name: "bt", Procs: 25}, {Name: "is", Procs: 32}}
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			tr, err := tracecache.Shared.Get(workloads.RunConfig{Spec: spec, Net: DefaultNetworkConfig(), Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			recv, _ := TypicalReceiver(spec.Name, spec.Procs)
			stats, err := ReplayCredits(tr, recv, 0, CreditConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*stats.CreditedRate(), spec.Name+"-credited-%")
			b.ReportMetric(stats.ExposureReductionFactor(), spec.Name+"-exposure-reduction-x")
		}
	}
}

// BenchmarkRendezvousElimination regenerates the Section 2.3 analysis:
// how much of the rendezvous handshake latency prediction removes for the
// large-message benchmarks (BT.4 faces and CG vector segments are above
// the 16 KB eager limit).
func BenchmarkRendezvousElimination(b *testing.B) {
	specs := []WorkloadSpec{{Name: "bt", Procs: 4}, {Name: "cg", Procs: 8}}
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			tr, err := tracecache.Shared.Get(workloads.RunConfig{Spec: spec, Net: DefaultNetworkConfig(), Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			recv, _ := TypicalReceiver(spec.Name, spec.Procs)
			stats, err := ReplayProtocol(tr, recv, ProtocolConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*stats.EliminationRate(), spec.Name+"-eliminated-%")
			b.ReportMetric(100*stats.LatencySavingFraction(), spec.Name+"-latency-saved-%")
		}
	}
}

// BenchmarkAblationLockPolicy compares the full DPD locking policy against
// ablated variants (no hold-down, no miss-rate relearn, strict-only
// locking) on a physically perturbed BT.9 stream, documenting why the
// design choices in DESIGN.md exist.
func BenchmarkAblationLockPolicy(b *testing.B) {
	spec := workloads.Spec{Name: "bt", Procs: 9}
	recv, _ := workloads.TypicalReceiver(spec.Name, spec.Procs)
	tr, err := tracecache.Shared.Get(workloads.RunConfig{Spec: spec, Net: DefaultNetworkConfig(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	stream := tr.SenderStream(recv, trace.Physical)
	variants := map[string]PredictorConfig{
		"full":          DefaultPredictorConfig(),
		"no-hold-down":  func() PredictorConfig { c := DefaultPredictorConfig(); c.HoldDown = 1; return c }(),
		"strict-only":   func() PredictorConfig { c := DefaultPredictorConfig(); c.LockTolerance = 1e-9; return c }(),
		"small-window":  func() PredictorConfig { c := DefaultPredictorConfig(); c.WindowSize = 64; c.MaxLag = 24; return c }(),
		"eager-relearn": func() PredictorConfig { c := DefaultPredictorConfig(); c.RelearnMissRate = 0.05; return c }(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, cfg := range variants {
			acc := evalx.EvaluateStream(stream, func() strategy.Strategy { return strategy.NewDPD(cfg) }, 5)
			b.ReportMetric(100*acc.Accuracy(1), name+"-%")
		}
	}
}

// BenchmarkServeObserve measures the online prediction service's full
// HTTP observe path (request parse, sharded registry routing, two
// predictor observes, response encode) in single-event steady state —
// the daemon's hot path under live traffic.
func BenchmarkServeObserve(b *testing.B) {
	env := benchdefs.NewServeBenchEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.ObserveHTTP(i); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportThroughput(b)
}

// BenchmarkServePredict measures the full HTTP predict path at the
// paper's +1..+5 horizon against a locked session.
func BenchmarkServePredict(b *testing.B) {
	env := benchdefs.NewServeBenchEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.PredictHTTP(); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportThroughput(b)
}

// BenchmarkGatewayObserve measures the cluster front door's keyed
// forward path: request parse, rendezvous routing, one proxied HTTP hop
// to the owning backend's observe handler, response relay.
func BenchmarkGatewayObserve(b *testing.B) {
	env, err := benchdefs.NewGatewayBenchEnv()
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.ObserveHTTP(i); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportThroughput(b)
}

// BenchmarkGatewayPredict measures the +1..+5 predict query through the
// gateway's forwarding hop.
func BenchmarkGatewayPredict(b *testing.B) {
	env, err := benchdefs.NewGatewayBenchEnv()
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.PredictHTTP(); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportThroughput(b)
}

// BenchmarkStrategyObserve measures the steady-state observe cost of
// every registered prediction strategy through the Strategy interface —
// the per-event price each model pays on the serving hot path. The dpd
// entry doubles as the interface-dispatch regression guard for the core
// predictor (0 allocs/op).
func BenchmarkStrategyObserve(b *testing.B) {
	for _, name := range strategy.Names() {
		b.Run(name, func(b *testing.B) {
			env, err := benchdefs.NewStrategyBenchEnv(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Observe()
			}
			benchdefs.ReportThroughput(b)
		})
	}
}

// BenchmarkStrategyPredict measures the +1..+5 series query of every
// registered strategy against a warmed stream.
func BenchmarkStrategyPredict(b *testing.B) {
	for _, name := range strategy.Names() {
		b.Run(name, func(b *testing.B) {
			env, err := benchdefs.NewStrategyBenchEnv(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.Predict(); err != nil {
					b.Fatal(err)
				}
			}
			benchdefs.ReportThroughput(b)
		})
	}
}

// BenchmarkCoreObserve measures the DPD layer below strategy dispatch:
// the bare detector and the StreamPredictor in its locked and learning
// states and on a stream that keeps unlocking it
// (benchdefs.CoreBenchLayers).
func BenchmarkCoreObserve(b *testing.B) {
	for _, layer := range benchdefs.CoreBenchLayers {
		b.Run(layer, func(b *testing.B) {
			env, err := benchdefs.NewCoreBenchEnv(layer)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Observe()
			}
			b.StopTimer()
			if err := env.Check(); err != nil {
				b.Fatal(err)
			}
			benchdefs.ReportThroughput(b)
		})
	}
}

// BenchmarkStoreScanTopK measures the columnar store's parallel
// projected top-K sender scan over a ≥1M-event trace: the store decodes
// only the sender and level columns, prunes by the footer index and fans
// partitions across GOMAXPROCS workers in constant memory.
func BenchmarkStoreScanTopK(b *testing.B) {
	env, err := benchdefs.StoreBench()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.ScanTopK(0); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportEventsThroughput(b, env.Events)
}

// BenchmarkStoreScanProjected measures the narrowest useful projection:
// summing the size column alone reads one block per partition of eight.
func BenchmarkStoreScanProjected(b *testing.B) {
	env, err := benchdefs.StoreBench()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.ScanProjectedSizeSum(0); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportEventsThroughput(b, env.Events)
}

// BenchmarkStoreWrite measures the columnar encoder end to end: the
// synthetic event stream through delta/dictionary encoding into
// io.Discard.
func BenchmarkStoreWrite(b *testing.B) {
	env, err := benchdefs.StoreBench()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.WriteStore(); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportEventsThroughput(b, env.Events)
}

// BenchmarkStoreRecordStream measures the replay path: every record of
// the store read one at a time through trace.Open.
func BenchmarkStoreRecordStream(b *testing.B) {
	env, err := benchdefs.StoreBench()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.RecordStream(); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportEventsThroughput(b, env.Events)
}

// BenchmarkTraceLoadTopK is the baseline of BenchmarkStoreScanTopK:
// trace.Load materializes every record of the same store, then the
// caller iterates. The events/s ratio between the two benchmarks is the
// speedup the parallel projected scan delivers on analytical queries.
func BenchmarkTraceLoadTopK(b *testing.B) {
	env, err := benchdefs.StoreBench()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.LoadIterateTopK(); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportEventsThroughput(b, env.Events)
}

// BenchmarkStrategyComparison regenerates the strategy comparison grid
// (the new report of this refactor): every registered strategy on one
// representative spec per benchmark. The metric is each strategy's mean
// logical sender accuracy on BT.
func BenchmarkStrategyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := evalx.CompareStrategies(nil, nil, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range cmp.Strategies {
			b.ReportMetric(100*cmp.Rows[0].Logical[name], name+"-bt-logical-%")
		}
	}
}
