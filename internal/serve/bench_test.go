// The external test package breaks the import cycle that an in-package
// test would create through benchdefs (which imports serve).
package serve_test

import (
	"testing"

	"mpipredict/internal/benchdefs"
)

// The headline serve benchmarks live in internal/benchdefs (shared with
// cmd/benchjson, so BENCH_<n>.json snapshots measure exactly what
// `go test -bench .` measures); these are thin adapters.

// BenchmarkServeObserve measures the full HTTP observe path: request
// parse, registry routing, two predictor observes, response encode.
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

// BenchmarkServeObserveBatch measures the batched ingest path the replay
// ingester uses (64 events per request).
func BenchmarkServeObserveBatch(b *testing.B) {
	env := benchdefs.NewServeBenchEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.ObserveBatchHTTP(i); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportBatchThroughput(b)
}

// BenchmarkServePredict measures the full HTTP predict path at the
// paper's +1..+5 horizon.
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

// BenchmarkServeObserveBlock measures the columnar observe path: the
// same 64 events as the batch bench, in the body shape the block
// pipeline posts, landing on ObserveBlockSeq.
func BenchmarkServeObserveBlock(b *testing.B) {
	env := benchdefs.NewServeBenchEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.ObserveBlockHTTP(i); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportBatchThroughput(b)
}

// BenchmarkRegistryObserveBlock isolates the block fast path under the
// HTTP layer — 64 columnar events per call, zero allocations.
func BenchmarkRegistryObserveBlock(b *testing.B) {
	env := benchdefs.NewServeBenchEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.ObserveBlockDirect(i); err != nil {
			b.Fatal(err)
		}
	}
	benchdefs.ReportBatchThroughput(b)
}

// BenchmarkRegistryObserve isolates the registry hot path under the HTTP
// layer — the zero-allocation single-event observe.
func BenchmarkRegistryObserve(b *testing.B) {
	env := benchdefs.NewServeBenchEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.ObserveDirect(i)
	}
	benchdefs.ReportThroughput(b)
}
