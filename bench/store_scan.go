package main

// store-scan: columnar trace-store encode, decode and the scan worker
// pool, with no predictor. Every rep writes the store benchmark's
// synthetic trace (about 1.05M events) to a .mpts file through
// stream.Copy into a tracestore.Writer, then runs the top-senders,
// time-window and phase-boundary aggregations on it. It is the bypass
// workload for serving and DPD changes, and puts writes beside reads.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"mpipredict/internal/benchdefs"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
)

const (
	storeTopK           = 10
	storeWindows        = 64
	storePhaseThreshold = 0.5
)

// storeColumns are the columns the three aggregations read.
var storeColumns = tracestore.Cols(tracestore.ColTime, tracestore.ColSender, tracestore.ColKind, tracestore.ColLevel)

type storeAnswers struct {
	top     []tracestore.SenderCount
	total   int64
	windows []tracestore.WindowStat
	phases  []tracestore.PhaseBoundary
}

// aggregate runs the three aggregations with the given number of scan
// workers, each in its own span, and returns the answers and the column
// blocks they read.
func aggregate(ctx context.Context, r *tracestore.Reader, workers int, t *tracer, parent int) (storeAnswers, int, error) {
	var a storeAnswers
	var s1, s2, s3 tracestore.ScanStats
	var err error
	id := t.begin("tracestore.topk", parent, 0, 1)
	a.top, a.total, s1, err = r.TopKSenders(ctx, trace.Logical, storeTopK, workers)
	t.end(id)
	if err != nil {
		return a, 0, err
	}
	id = t.begin("tracestore.windows", parent, 0, 1)
	a.windows, s2, err = r.TimeWindows(ctx, trace.Logical, storeWindows, workers)
	t.end(id)
	if err != nil {
		return a, 0, err
	}
	id = t.begin("tracestore.phases", parent, 0, 1)
	a.phases, s3, err = r.PhaseBoundaries(ctx, trace.Logical, storeWindows, storePhaseThreshold, workers)
	t.end(id)
	return a, s1.BlocksRead + s2.BlocksRead + s3.BlocksRead, err
}

// storeInput holds the generated events column by column in arrays
// without pointers (operation names as indexes into a small table), so
// the garbage collector never scans the million-event input during a rep.
type storeInput struct {
	app          string
	procs        int
	time         []float64
	receiver     []int
	sender, size []int64
	tag          []int
	kind         []trace.Kind
	level        []trace.Level
	op           []uint8
	ops          []string
}

func newStoreInput(app string, procs, capacity int) *storeInput {
	return &storeInput{
		app: app, procs: procs,
		time: make([]float64, 0, capacity), receiver: make([]int, 0, capacity),
		sender: make([]int64, 0, capacity), size: make([]int64, 0, capacity),
		tag: make([]int, 0, capacity), kind: make([]trace.Kind, 0, capacity),
		level: make([]trace.Level, 0, capacity), op: make([]uint8, 0, capacity),
	}
}

func (in *storeInput) len() int { return len(in.time) }

// Write makes the input a stream.Sink, so it is filled by stream.Copy.
func (in *storeInput) Write(b *stream.EventBlock) error {
	in.time = append(in.time, b.Time...)
	in.receiver = append(in.receiver, b.Receiver...)
	in.sender = append(in.sender, b.Sender...)
	in.size = append(in.size, b.Size...)
	in.tag = append(in.tag, b.Tag...)
	in.kind = append(in.kind, b.Kind...)
	in.level = append(in.level, b.Level...)
	for _, name := range b.Op {
		i := slices.Index(in.ops, name)
		if i < 0 {
			if len(in.ops) > math.MaxUint8 {
				return fmt.Errorf("more than %d operation names", math.MaxUint8+1)
			}
			i = len(in.ops)
			in.ops = append(in.ops, name)
		}
		in.op = append(in.op, uint8(i))
	}
	return nil
}

// inputSource replays a storeInput as event blocks.
type inputSource struct {
	in *storeInput
	i  int
}

func (s *inputSource) Next(b *stream.EventBlock) error {
	b.Reset()
	if s.i >= s.in.len() {
		return io.EOF
	}
	lo, hi := s.i, min(s.i+stream.BlockLen, s.in.len())
	in := s.in
	b.Time = append(b.Time, in.time[lo:hi]...)
	b.Receiver = append(b.Receiver, in.receiver[lo:hi]...)
	b.Sender = append(b.Sender, in.sender[lo:hi]...)
	b.Size = append(b.Size, in.size[lo:hi]...)
	b.Tag = append(b.Tag, in.tag[lo:hi]...)
	b.Kind = append(b.Kind, in.kind[lo:hi]...)
	b.Level = append(b.Level, in.level[lo:hi]...)
	for _, op := range in.op[lo:hi] {
		b.Op = append(b.Op, in.ops[op])
	}
	s.i = hi
	return nil
}

type storeEnv struct {
	in  *storeInput
	dir string
	ref storeAnswers // one-worker answers
}

func (e *storeEnv) path() string { return filepath.Join(e.dir, "rep.mpts") }

// write streams the input into a fresh store file and returns its size.
func (e *storeEnv) write() (int64, error) {
	// Unlink the previous rep's file instead of truncating it: ext4 starts
	// writing a truncated-and-rewritten file back to disk when it is
	// closed, while an unlinked file's dirty pages are simply dropped, so
	// no rep waits on the disk.
	if err := os.Remove(e.path()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	f, err := os.Create(e.path())
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	w, err := tracestore.NewWriter(bw, e.in.app, e.in.procs)
	if err != nil {
		return 0, err
	}
	if _, err := stream.Copy(stream.SinkTo(w), &inputSource{in: e.in}); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), f.Close()
}

func storeSetup(ctx context.Context, p params) (*storeEnv, error) {
	cfg := benchdefs.StoreBenchConfig()
	cfg.Seed = p.seed
	if p.sizes.storeEvents > 0 {
		cfg.Events = p.sizes.storeEvents
	}
	in := newStoreInput(cfg.App, cfg.Procs, 2*cfg.Events)
	if _, err := stream.Copy(in, stream.SynthSource(cfg)); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "bench-store-*")
	if err != nil {
		return nil, err
	}
	e := &storeEnv{in: in, dir: dir}
	if _, err := e.write(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r, err := tracestore.Open(e.path())
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer r.Close()
	if e.ref, _, err = aggregate(ctx, r, 1, newTracer(false), -1); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return e, nil
}

// storeRep writes the store and aggregates it with p.workers workers,
// checking the answers against the one-worker reference.
func storeRep(ctx context.Context, rep *report, p params, e *storeEnv) (write, scan time.Duration, err error) {
	start := time.Now()
	if _, err := e.write(); err != nil {
		return 0, 0, fmt.Errorf("writing: %w", err)
	}
	write = time.Since(start)
	start = time.Now()
	r, err := tracestore.Open(e.path())
	if err != nil {
		return write, 0, err
	}
	defer r.Close()
	got, _, err := aggregate(ctx, r, p.workers, newTracer(false), -1)
	scan = time.Since(start)
	if err != nil {
		return write, scan, fmt.Errorf("scanning: %w", err)
	}
	if r.Events() != int64(e.in.len()) {
		rep.problem("store indexes %d events, %d were written", r.Events(), e.in.len())
	}
	if !reflect.DeepEqual(got, e.ref) {
		rep.problem("aggregations at %d workers differ from the one-worker reference", p.workers)
	}
	return write, scan, nil
}

func runStoreScan(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	env, err := timedSetups(rep, func() (*storeEnv, error) { return storeSetup(ctx, p) }, func(e *storeEnv) { os.RemoveAll(e.dir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	events := int64(env.in.len())
	rep.note("store: %d events", events)

	var writes, scans time.Duration
	var reps []float64
	before := readMem()
	start := time.Now()
	for len(reps) == 0 || (!p.trace && time.Since(start) < p.seconds) {
		w, s, err := storeRep(ctx, rep, p, env)
		rep.ops(2, 0)
		if err != nil {
			rep.ops(0, 1)
			rep.problem("rep %d: %v", len(reps), err)
			return rep, nil
		}
		writes += w
		scans += s
		reps = append(reps, ms(w+s))
	}
	after := readMem()
	setRuntimeLayer(rep, before, after, len(reps))
	n := float64(len(reps))
	lat := summarize(reps)
	rep.set("events_per_s", float64(events)/(lat.p50/1e3), lat.n)
	setLatency(rep, "rep (write + three aggregations)", lat)
	rep.note("write %.0f events/s, scan %.0f events/s (all three aggregations), %d reps",
		float64(events)*n/writes.Seconds(), float64(events)*n/scans.Seconds(), len(reps))
	rep.set("max_rss_mb", maxRSSMiB(), 1)

	if p.trace {
		if err := storeLayers(ctx, rep, p, env); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// storeLayers replays a rep layer by layer.
func storeLayers(ctx context.Context, rep *report, p params, e *storeEnv) error {
	var st storeReplayStats
	t, err := tracedReplays(rep, overheadPairs, func(t *tracer) error {
		var err error
		st, err = storeReplay(ctx, p, e, t)
		return err
	})
	if err != nil {
		return err
	}

	tt := totals(t.spans)
	events := float64(e.in.len())
	write, read := total(tt, "tracestore.write"), total(tt, "tracestore.read_partition")
	topk, windows, phases := total(tt, "tracestore.topk"), total(tt, "tracestore.windows"), total(tt, "tracestore.phases")
	parallel := total(tt, "tracestore.scan_parallel")
	rep.set("tracestore.write_ns_per_event", write.dur/events, write.spans)
	rep.set("tracestore.bytes_per_event", float64(st.bytes)/events, 1)
	rep.set("tracestore.read_partition_ns_per_event", read.dur/events, read.spans)
	rep.set("tracestore.topk_ns_per_event", topk.dur/events, topk.spans)
	rep.set("tracestore.windows_ns_per_event", windows.dur/events, windows.spans)
	rep.set("tracestore.phases_ns_per_event", phases.dur/events, phases.spans)
	serial := topk.dur + windows.dur + phases.dur
	rep.set("tracestore.parallel_efficiency", serial/(parallel.dur*float64(p.workers)), parallel.spans)
	rep.set("tracestore.blocks_read", float64(st.blocks), 1)
	rep.set("strategy.calls", 0, 1)
	return nil
}

// storeReplayStats are what the replay measured besides spans.
type storeReplayStats struct {
	bytes  int64
	blocks int
}

// storeReplay writes the store, decodes every partition with
// Reader.ReadPartition on one goroutine, runs each aggregation with one
// worker, then all three with p.workers.
func storeReplay(ctx context.Context, p params, e *storeEnv, t *tracer) (storeReplayStats, error) {
	var st storeReplayStats
	root := t.begin("rep", -1, 0, 0)
	id := t.begin("tracestore.write", root, 0, e.in.len())
	size, err := e.write()
	t.end(id)
	if err != nil {
		return st, err
	}
	st.bytes = size
	r, err := tracestore.Open(e.path())
	if err != nil {
		return st, err
	}
	defer r.Close()
	var pd tracestore.PartitionData
	for i := 0; i < r.Partitions(); i++ {
		id := t.begin("tracestore.read_partition", root, int64(i), 1)
		err := r.ReadPartition(i, storeColumns, &pd)
		t.end(id)
		if err != nil {
			return st, err
		}
	}
	if _, st.blocks, err = aggregate(ctx, r, 1, t, root); err != nil {
		return st, err
	}
	id = t.begin("tracestore.scan_parallel", root, 0, 3)
	_, _, err = aggregate(ctx, r, p.workers, newTracer(false), -1)
	t.end(id)
	t.end(root)
	return st, err
}
