// Package stream is the batched event pipeline every layer of the
// reproduction moves trace events through: producers (the simulated MPI
// runtime, the synthetic generators, the on-disk codecs) fill columnar
// EventBlocks, consumers (the evaluation harness, the serving registry,
// the codecs again) drain them, and a small set of composable transforms
// — receiver/level filters, deterministic perturbation, k-way merge —
// sits in between.
//
// The paper's predictor is an online algorithm; this package is the
// plumbing that lets the reproduction treat it that way end to end:
// evaluation and replay consume events in constant memory no matter how
// long the trace is, and the per-event dispatch cost of the old
// record-at-a-time loops is amortized over a whole block.
//
// Ownership and reuse rules (the contract DESIGN.md §6 specifies):
//
//   - The caller of Next owns one EventBlock and passes the same block to
//     every call; Next resets it and refills it, reusing the backing
//     arrays, so a drained pipeline allocates nothing per block in steady
//     state.
//   - A Source must not retain the block or its slices across calls.
//   - A Sink may read the block during Write but must copy anything it
//     keeps; the producer will overwrite the arrays on the next fill.
//   - Blocks carry no Seq numbers (exactly like the binary codec):
//     within one (receiver, level) pair events appear in stream order,
//     and consumers that need sequence numbers reassign them by counting.
package stream

import (
	"io"
	"sort"

	"mpipredict/internal/trace"
)

// BlockLen is the default number of events a source packs into one block:
// large enough to amortize per-block dispatch, small enough that a
// handful of in-flight blocks stay cache- and allocation-friendly.
const BlockLen = 1024

// EventBlock is a columnar batch of trace events: one slice per record
// field, all of the same length. The layout keeps the hot consumers —
// the predictor evaluation loops, the serving registry's block observe —
// scanning dense int64 arrays instead of chasing per-record structs.
// Sender is widened to int64 (the value type every predictor consumes),
// so the Sender and Size columns feed Observe loops without conversion.
type EventBlock struct {
	Time     []float64
	Receiver []int
	Sender   []int64
	Size     []int64
	Tag      []int
	Kind     []trace.Kind
	Level    []trace.Level
	Op       []string
}

// Len returns the number of events in the block.
func (b *EventBlock) Len() int { return len(b.Sender) }

// Reset truncates the block to zero events, keeping the backing arrays
// for reuse.
func (b *EventBlock) Reset() {
	b.Time = b.Time[:0]
	b.Receiver = b.Receiver[:0]
	b.Sender = b.Sender[:0]
	b.Size = b.Size[:0]
	b.Tag = b.Tag[:0]
	b.Kind = b.Kind[:0]
	b.Level = b.Level[:0]
	b.Op = b.Op[:0]
}

// Append adds one record to the block. The record's Seq is dropped —
// blocks carry stream order, not sequence numbers.
func (b *EventBlock) Append(r trace.Record) {
	b.Time = append(b.Time, r.Time)
	b.Receiver = append(b.Receiver, r.Receiver)
	b.Sender = append(b.Sender, int64(r.Sender))
	b.Size = append(b.Size, r.Size)
	b.Tag = append(b.Tag, r.Tag)
	b.Kind = append(b.Kind, r.Kind)
	b.Level = append(b.Level, r.Level)
	b.Op = append(b.Op, r.Op)
}

// Record reassembles event i as a trace.Record (Seq zero; consumers that
// need one reassign it).
func (b *EventBlock) Record(i int) trace.Record {
	return trace.Record{
		Time:     b.Time[i],
		Receiver: b.Receiver[i],
		Sender:   int(b.Sender[i]),
		Size:     b.Size[i],
		Tag:      b.Tag[i],
		Kind:     b.Kind[i],
		Level:    b.Level[i],
		Op:       b.Op[i],
	}
}

// Source produces blocks of events. Next resets the caller's block,
// refills it (at most BlockLen events) and returns nil when at least one
// event was produced; it returns io.EOF — with an empty block — when the
// stream is exhausted, and any other error on failure.
type Source interface {
	Next(b *EventBlock) error
}

// Sink consumes blocks of events. Write may read the block but must not
// retain it or its slices.
type Sink interface {
	Write(b *EventBlock) error
}

// OpenFunc opens a fresh Source over the same event stream. Multi-pass
// consumers — evalx.EvaluateSource needs one pass per concurrent stream
// view — take an OpenFunc instead of a Source so each pass reads from the
// beginning; implementations reopen the file, rewind the trace cursor or
// reseed the generator. Sources handed out by an OpenFunc are closed with
// Close by the consumer.
type OpenFunc func() (Source, error)

// Metadata is the run identity a source may carry: the workload name and
// rank count of the trace file header.
type Metadata struct {
	App   string
	Procs int
}

// MetaOf reports the metadata of sources that carry one (file and trace
// sources, and every transform over them). Sources without the notion —
// hand-rolled generators — report ok == false.
func MetaOf(s Source) (Metadata, bool) {
	if m, ok := s.(interface{ Meta() (Metadata, bool) }); ok {
		return m.Meta()
	}
	return Metadata{}, false
}

// Close closes a source when it holds resources (file sources do);
// sources without a Close are left alone. It is the counterpart of
// OpenFunc: consumers close every source they opened.
func Close(s Source) error {
	if c, ok := s.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// meta is the embeddable Metadata carrier the package's own sources and
// transforms share.
type meta struct {
	md    Metadata
	haveM bool
}

func (m meta) Meta() (Metadata, bool) { return m.md, m.haveM }

func metaFrom(s Source) meta {
	md, ok := MetaOf(s)
	return meta{md: md, haveM: ok}
}

// traceSource streams an in-memory trace in record order.
type traceSource struct {
	meta
	tr *trace.Trace
	i  int
}

// TraceSource returns a Source over the records of an in-memory trace, in
// their stored order (within one (receiver, level) pair that is Seq
// order). It carries the trace's App/Procs metadata.
func TraceSource(tr *trace.Trace) Source {
	return &traceSource{meta: meta{md: Metadata{App: tr.App, Procs: tr.Procs}, haveM: true}, tr: tr}
}

func (s *traceSource) Next(b *EventBlock) error {
	b.Reset()
	if s.i >= len(s.tr.Records) {
		return io.EOF
	}
	end := s.i + BlockLen
	if end > len(s.tr.Records) {
		end = len(s.tr.Records)
	}
	for ; s.i < end; s.i++ {
		b.Append(s.tr.Records[s.i])
	}
	return nil
}

// RecordWriter is the record-at-a-time writing side both trace formats
// expose (tracestore.Writer for .mpts, trace.JSONLWriter for JSONL).
type RecordWriter interface {
	WriteRecord(trace.Record) error
}

// recordSink adapts a RecordWriter into a Sink.
type recordSink struct{ w RecordWriter }

// SinkTo returns a Sink that writes every event of every block through
// the given record writer — the bridge from the block pipeline onto the
// streaming trace writers.
func SinkTo(w RecordWriter) Sink { return recordSink{w} }

func (s recordSink) Write(b *EventBlock) error {
	for i := 0; i < b.Len(); i++ {
		if err := s.w.WriteRecord(b.Record(i)); err != nil {
			return err
		}
	}
	return nil
}

// Tee returns a Sink that writes every block to all of the given sinks,
// in order, stopping at the first error.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) Write(b *EventBlock) error {
	for _, s := range t {
		if err := s.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Copy drains src into dst one block at a time, reusing a single block,
// and returns the number of events moved.
func Copy(dst Sink, src Source) (int64, error) {
	var b EventBlock
	var n int64
	for {
		err := src.Next(&b)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += int64(b.Len())
		if err := dst.Write(&b); err != nil {
			return n, err
		}
	}
}

// Receivers drains a source and returns the distinct receiver ranks it
// delivered to, sorted — the one-pass scan streaming replays use to pick
// a receiver without materializing the trace.
func Receivers(src Source) ([]int, error) {
	seen := map[int]bool{}
	var b EventBlock
	for {
		err := src.Next(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, r := range b.Receiver {
			seen[r] = true
		}
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out, nil
}

// Gather materializes a source into an in-memory trace, taking App/Procs
// from the source's metadata when it carries one. Seq numbers are
// reassigned from stream order, exactly as the codec readers do. It is
// the bridge back from the pipeline to consumers that genuinely need a
// whole trace.
func Gather(src Source) (*trace.Trace, error) {
	md, _ := MetaOf(src)
	tr := trace.New(md.App, md.Procs)
	var b EventBlock
	for {
		err := src.Next(&b)
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.Len(); i++ {
			tr.Append(b.Record(i))
		}
	}
}
