package tracestore

import (
	"context"
	"fmt"
	"io"

	"mpipredict/internal/trace"
)

// init hooks the store format into trace.Open's sniffing, so every
// consumer of "a trace file" — stream.FileSource, the evaluation
// replays, the serve ingester, all CLIs — reads .mpts stores through the
// exact same door as JSONL traces, with no caller changes.
func init() {
	trace.RegisterFormat(storeMagic, func(path string) (trace.FormatReader, error) {
		r, err := Open(path)
		if err != nil {
			return nil, err
		}
		return &recordReader{r: r}, nil
	})
}

// recordReader adapts a Reader to the record-at-a-time trace.FormatReader
// contract: partitions are decoded one at a time in file order (which is
// the original stream order), so memory stays bounded by one partition
// regardless of trace size.
type recordReader struct {
	r    *Reader
	part int
	pos  int
	pd   PartitionData
}

func (rr *recordReader) App() string { return rr.r.App() }

func (rr *recordReader) Procs() int { return rr.r.Procs() }

func (rr *recordReader) Read() (trace.Record, error) {
	for rr.pos >= len(rr.pd.Time) {
		if rr.part >= rr.r.Partitions() {
			return trace.Record{}, io.EOF
		}
		if err := rr.r.ReadPartition(rr.part, AllColumns, &rr.pd); err != nil {
			return trace.Record{}, fmt.Errorf("tracestore: reading partition %d: %w", rr.part, err)
		}
		rr.part++
		rr.pos = 0
	}
	rec := rr.pd.Record(rr.pos)
	rr.pos++
	return rec, nil
}

func (rr *recordReader) Close() error { return rr.r.Close() }

// LoadFile materializes the named store as an in-memory trace using a
// parallel scan (decode fans over the worker pool; the sequencer appends
// in stream order, so the result is deterministic and Seq numbering
// matches a sequential read). It returns the scan stats so callers — the
// tracecache disk tier — can account for blocks read and partitions
// pruned.
func LoadFile(path string) (*trace.Trace, ScanStats, error) {
	r, err := Open(path)
	if err != nil {
		return nil, ScanStats{}, err
	}
	defer r.Close()
	tr := trace.New(r.App(), r.Procs())
	if n := r.Events(); int64(int(n)) == n {
		tr.Records = make([]trace.Record, 0, n)
	}
	stats, err := r.Scan(context.Background(), Query{}, func(pd *PartitionData) error {
		for i := 0; i < len(pd.Time); i++ {
			tr.Append(pd.Record(i))
		}
		return nil
	})
	if err != nil {
		return nil, stats, fmt.Errorf("tracestore: reading %s: %w", path, err)
	}
	return tr, stats, nil
}
