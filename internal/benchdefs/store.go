package benchdefs

// The columnar-store benchmark bodies: a ≥1M-event synthetic trace
// written once per process as a .mpts store, then scanned through the
// tracestore engine (projected, parallel, constant memory), streamed
// record by record through trace.Open (the replay path), and
// materialized with trace.Load (the load-then-iterate baseline). The
// committed snapshots carry the scan-vs-load speedup the partitioned
// format exists to deliver.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
)

// StoreBenchEventsPerLevel is the synthetic event count per stream level;
// both levels together put just over one million records in the trace.
const StoreBenchEventsPerLevel = 1 << 19

// storeBenchTopK is the ranking depth of the top-senders scan entries.
const storeBenchTopK = 10

// StoreBenchConfig is the synthetic stream behind the store benchmarks:
// the paper's period-18 rotation with mild physical reordering, seed 1.
func StoreBenchConfig() trace.SynthConfig {
	const period = 18
	pattern := make([]trace.SynthMessage, period)
	for i := range pattern {
		pattern[i] = trace.SynthMessage{Sender: i + 1, Size: int64(64 * (i + 1))}
	}
	return trace.SynthConfig{
		App:             "storebench",
		Procs:           period + 1,
		Receiver:        0,
		Pattern:         pattern,
		Events:          StoreBenchEventsPerLevel,
		SwapProbability: 0.05,
		Seed:            1,
	}
}

// StoreBenchEnv holds the once-per-process benchmark fixture: the
// ≥1M-event synthetic trace on disk as a store, plus an open store
// reader (safe for concurrent scans — it reads through an io.ReaderAt).
type StoreBenchEnv struct {
	StorePath string
	Events    int64

	r *tracestore.Reader
}

var storeBench struct {
	once sync.Once
	env  *StoreBenchEnv
	err  error
}

// StoreBench builds (first call) or returns the shared store benchmark
// environment. The fixture directory lives until the process exits.
func StoreBench() (*StoreBenchEnv, error) {
	storeBench.once.Do(func() {
		storeBench.env, storeBench.err = newStoreBenchEnv()
	})
	return storeBench.env, storeBench.err
}

func newStoreBenchEnv() (*StoreBenchEnv, error) {
	dir, err := os.MkdirTemp("", "mpipredict-storebench-*")
	if err != nil {
		return nil, err
	}
	env := &StoreBenchEnv{StorePath: filepath.Join(dir, "bench.mpts")}
	cfg := StoreBenchConfig()

	// One streamed pass writes the store in constant memory.
	sf, err := os.Create(env.StorePath)
	if err != nil {
		return nil, err
	}
	sw, err := tracestore.NewWriter(sf, cfg.App, cfg.Procs)
	if err != nil {
		sf.Close()
		return nil, err
	}
	n, err := stream.Copy(stream.SinkTo(sw), stream.SynthSource(cfg))
	if err != nil {
		sf.Close()
		return nil, err
	}
	env.Events = n
	for _, close := range []func() error{sw.Close, sf.Close} {
		if err := close(); err != nil {
			return nil, err
		}
	}

	env.r, err = tracestore.Open(env.StorePath)
	if err != nil {
		return nil, err
	}
	if env.r.Events() != n {
		return nil, fmt.Errorf("store indexes %d events, wrote %d", env.r.Events(), n)
	}
	return env, nil
}

// ScanTopK answers the top-K logical senders through the parallel store
// scanner (0 = GOMAXPROCS workers).
func (e *StoreBenchEnv) ScanTopK(workers int) ([]tracestore.SenderCount, error) {
	rows, _, _, err := e.r.TopKSenders(context.Background(), trace.Logical, storeBenchTopK, workers)
	return rows, err
}

// ScanProjectedSizeSum sums the size column alone: the narrowest useful
// projection, reading one block per partition instead of eight.
func (e *StoreBenchEnv) ScanProjectedSizeSum(workers int) (int64, error) {
	var sum int64
	_, err := e.r.Scan(context.Background(), tracestore.Query{
		Columns: tracestore.Cols(tracestore.ColSize),
		Workers: workers,
	}, func(pd *tracestore.PartitionData) error {
		for _, s := range pd.Size {
			sum += s
		}
		return nil
	})
	return sum, err
}

// RecordStream reads the store record by record through trace.Open, the
// path every replay takes, and returns the number of records read.
func (e *StoreBenchEnv) RecordStream() (int64, error) {
	f, err := trace.Open(e.StorePath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var n int64
	for {
		if _, err := f.Read(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		n++
	}
}

// LoadIterateTopK is the baseline the scan entries are measured against:
// materialize the whole trace with trace.Load, then iterate.
func (e *StoreBenchEnv) LoadIterateTopK() ([]tracestore.SenderCount, error) {
	tr, err := trace.Load(e.StorePath)
	if err != nil {
		return nil, err
	}
	counts := make(map[int64]int64)
	for i := range tr.Records {
		if tr.Records[i].Level == trace.Logical {
			counts[int64(tr.Records[i].Sender)]++
		}
	}
	rows := make([]tracestore.SenderCount, 0, len(counts))
	for s, n := range counts {
		rows = append(rows, tracestore.SenderCount{Sender: s, Events: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Events != rows[j].Events {
			return rows[i].Events > rows[j].Events
		}
		return rows[i].Sender < rows[j].Sender
	})
	if len(rows) > storeBenchTopK {
		rows = rows[:storeBenchTopK]
	}
	return rows, nil
}

// WriteStore streams the synthetic event stream through the columnar
// encoder into io.Discard: pure encode cost, no filesystem noise.
func (e *StoreBenchEnv) WriteStore() (int64, error) {
	cfg := StoreBenchConfig()
	w, err := tracestore.NewWriter(io.Discard, cfg.App, cfg.Procs)
	if err != nil {
		return 0, err
	}
	n, err := stream.Copy(stream.SinkTo(w), stream.SynthSource(cfg))
	if err != nil {
		return 0, err
	}
	return n, w.Close()
}

// ReportEventsThroughput reports events/s for benchmarks whose every
// iteration processes eventsPerOp events.
func ReportEventsThroughput(b *testing.B, eventsPerOp int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*float64(eventsPerOp)/s, "events/s")
	}
}
