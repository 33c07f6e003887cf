package simmpi

import (
	"fmt"
	"math/rand"
	"sort"

	"mpipredict/internal/simnet"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
)

// Program is the code executed by every rank, in SPMD style: the same
// function runs on each rank and branches on r.ID().
type Program func(r *Rank)

// Config describes one simulated run.
type Config struct {
	// App names the workload; it is copied into the resulting trace.
	App string
	// Procs is the number of ranks.
	Procs int
	// Net parameterises the interconnect model.
	Net simnet.Config
	// Seed drives all stochastic elements. Each rank derives its own
	// generator from it, so runs are reproducible.
	Seed int64
	// TraceReceivers restricts event recording to the listed ranks. An
	// empty slice records every rank, which is convenient for small runs
	// but memory-hungry for workloads with tens of thousands of messages
	// per rank.
	TraceReceivers []int
}

// Validate reports whether the run configuration is usable.
func (c Config) Validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("simmpi: Procs must be >= 1, got %d", c.Procs)
	}
	if c.App == "" {
		return fmt.Errorf("simmpi: App must be set")
	}
	return c.Net.Validate()
}

// rankState is the scheduler-visible state of a rank goroutine.
type rankState int

const (
	stateReady rankState = iota
	stateBlocked
	stateDone
)

// Engine owns the ranks, the network model and the trace being collected.
type Engine struct {
	cfg   Config
	model *simnet.Model
	ranks []*Rank
	tr    *trace.Trace

	// sink, when non-nil, receives the run's events as blocks instead of
	// the trace accumulating them: logical records leave the engine as
	// soon as a block fills, so only the physical buffer (which must be
	// time-sorted at the end) scales with the run. RunStream sets it.
	sink    stream.Sink
	blk     stream.EventBlock
	sinkErr error

	traceAll   bool
	traceSet   map[int]bool
	physical   map[int][]trace.Record // per receiver, unsorted physical events
	deadlock   bool
	programErr error
}

// NewEngine builds an engine for the given configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := simnet.NewModel(cfg.Net)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		model:    model,
		tr:       trace.New(cfg.App, cfg.Procs),
		traceAll: len(cfg.TraceReceivers) == 0,
		traceSet: make(map[int]bool, len(cfg.TraceReceivers)),
		physical: make(map[int][]trace.Record),
	}
	for _, r := range cfg.TraceReceivers {
		e.traceSet[r] = true
	}
	for i := 0; i < cfg.Procs; i++ {
		e.ranks = append(e.ranks, newRank(e, i))
	}
	return e, nil
}

// traced reports whether events for the given receiver should be recorded.
func (e *Engine) traced(receiver int) bool {
	return e.traceAll || e.traceSet[receiver]
}

// Run executes the program on every rank and returns the collected trace.
// It returns an error if the program deadlocks (every unfinished rank is
// blocked on a message that will never arrive) or panics.
func (e *Engine) Run(program Program) (*trace.Trace, error) {
	if err := e.execute(program); err != nil {
		return nil, err
	}
	return e.tr, nil
}

// RunStream executes the program and delivers the run's events to the
// sink as blocks, in the exact order Run would have stored them (all
// logical records in completion order, then the physical records sorted
// per receiver) — a sink fed by RunStream and a trace built by Run encode
// byte-identically. Logical records are never buffered beyond one block.
func (e *Engine) RunStream(program Program, sink stream.Sink) error {
	e.sink = sink
	if err := e.execute(program); err != nil {
		return err
	}
	e.flushBlock()
	return e.sinkErr
}

// execute runs the scheduler loop and flushes the physical buffer; the
// collected events are in e.tr or have been emitted to e.sink.
func (e *Engine) execute(program Program) error {
	if program == nil {
		return fmt.Errorf("simmpi: nil program")
	}
	for _, r := range e.ranks {
		r.start(program)
	}
	// Cooperative round-robin scheduling: resume every rank that is ready
	// or whose mailbox has grown since it blocked. Stop when all ranks are
	// done, or when nothing can make progress (deadlock).
	for {
		progress := false
		allDone := true
		for _, r := range e.ranks {
			if r.state == stateDone {
				continue
			}
			allDone = false
			if r.state == stateBlocked && r.mailboxVersion == r.blockedAtVersion {
				continue
			}
			r.resumeOnce()
			progress = true
		}
		if allDone {
			break
		}
		if !progress {
			e.deadlock = true
			break
		}
	}
	if e.programErr != nil {
		return fmt.Errorf("simmpi: rank program failed: %w", e.programErr)
	}
	if e.deadlock {
		return fmt.Errorf("simmpi: deadlock: %s", e.describeBlockedRanks())
	}
	e.flushPhysical()
	return nil
}

// emit routes one finished record: into the trace by default, into the
// block pipeline when a sink is attached. Sink errors are remembered and
// further emission stops; RunStream reports them after the run (the rank
// programs deep below cannot propagate an error mid-simulation).
func (e *Engine) emit(rec trace.Record) {
	if e.sink == nil {
		e.tr.Append(rec)
		return
	}
	if e.sinkErr != nil {
		return
	}
	e.blk.Append(rec)
	if e.blk.Len() >= stream.BlockLen {
		e.flushBlock()
	}
}

func (e *Engine) flushBlock() {
	if e.sinkErr != nil || e.blk.Len() == 0 {
		return
	}
	e.sinkErr = e.sink.Write(&e.blk)
	e.blk.Reset()
}

func (e *Engine) describeBlockedRanks() string {
	desc := ""
	for _, r := range e.ranks {
		if r.state == stateBlocked {
			if desc != "" {
				desc += "; "
			}
			desc += fmt.Sprintf("rank %d blocked on %s", r.id, r.blockedOn)
		}
	}
	if desc == "" {
		desc = "no rank is blocked (internal scheduling error)"
	}
	return desc
}

// flushPhysical sorts the buffered physical events of every receiver by
// arrival time and appends them to the trace, assigning dense sequence
// numbers. Ties are broken by the order the messages were sent so the
// result is deterministic. The trace is grown once for the whole batch so
// the appends never reallocate.
func (e *Engine) flushPhysical() {
	receivers := make([]int, 0, len(e.physical))
	total := 0
	for r, recs := range e.physical {
		receivers = append(receivers, r)
		total += len(recs)
	}
	sort.Ints(receivers)
	if e.sink == nil {
		e.tr.Grow(total)
	}
	for _, recv := range receivers {
		recs := e.physical[recv]
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
		for _, rec := range recs {
			e.emit(rec)
		}
	}
}

// recordLogical appends a logical-level receive record, if tracing is
// enabled for the receiver.
func (e *Engine) recordLogical(rec trace.Record) {
	if !e.traced(rec.Receiver) {
		return
	}
	rec.Level = trace.Logical
	e.emit(rec)
}

// recordPhysical buffers a physical-level arrival record, if tracing is
// enabled for the receiver. The per-receiver buffer starts with a chunky
// capacity: traced workloads deliver hundreds to tens of thousands of
// messages per receiver, so growing from a nil slice would pay a dozen
// reallocations per receiver.
func (e *Engine) recordPhysical(rec trace.Record) {
	if !e.traced(rec.Receiver) {
		return
	}
	rec.Level = trace.Physical
	buf := e.physical[rec.Receiver]
	if buf == nil {
		buf = make([]trace.Record, 0, 512)
	}
	e.physical[rec.Receiver] = append(buf, rec)
}

// rankRNG derives a per-rank random generator from the run seed so that
// the noise experienced by one rank does not depend on how other ranks
// were scheduled.
func (e *Engine) rankRNG(rank int) *rand.Rand {
	return rand.New(rand.NewSource(e.cfg.Seed*1_000_003 + int64(rank)*7919 + 17))
}

// Run is a convenience wrapper: build an engine, run the program, return
// the trace.
func Run(cfg Config, program Program) (*trace.Trace, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(program)
}

// RunToSink is the streaming convenience wrapper: build an engine, run
// the program, deliver the events to the sink as blocks. The trace is
// never materialized (only the physical-sort buffer scales with the run),
// and the emitted event order is identical to what Run stores.
func RunToSink(cfg Config, program Program, sink stream.Sink) error {
	e, err := NewEngine(cfg)
	if err != nil {
		return err
	}
	return e.RunStream(program, sink)
}
