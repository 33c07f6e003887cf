// Package trace defines the message-trace model shared by the simulated
// MPI runtime, the evaluation harness and the scalability applications.
//
// The paper instruments MPICH at two levels (Section 3.1):
//
//   - the logical level — the MPI calls issued by the application against
//     the top of the MPI library; their order is a function of the
//     application code only, and
//   - the physical level — the point at which messages actually arrive at
//     the low level of the library; their order additionally reflects
//     network latencies, load imbalance and other sources of randomness.
//
// A Trace holds the receive events of one run at both levels. The streams
// the predictor consumes — the sequence of sender ranks and of message
// sizes seen by one receiving process — are extracted with SenderStream
// and SizeStream.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"mpipredict/internal/stats"
)

// Level distinguishes the two instrumentation points of the paper.
type Level int

const (
	// Logical events are recorded in the order the application's receive
	// operations complete (top of the MPI library).
	Logical Level = iota
	// Physical events are recorded in the order messages arrive at the
	// low level of the MPI library.
	Physical
)

// String returns the level name used in reports and JSONL files.
func (l Level) String() string {
	switch l {
	case Logical:
		return "logical"
	case Physical:
		return "physical"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel converts a level name back into a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "logical":
		return Logical, nil
	case "physical":
		return Physical, nil
	default:
		return 0, fmt.Errorf("trace: unknown level %q", s)
	}
}

// Kind distinguishes point-to-point messages from messages generated on
// behalf of collective operations. Table 1 of the paper reports the two
// counts separately.
type Kind int

const (
	// PointToPoint messages come from MPI_Send/MPI_Isend and friends.
	PointToPoint Kind = iota
	// Collective messages are generated internally by collective
	// operations (broadcast, reduce, alltoall, ...).
	Collective
)

// String returns the kind name used in reports and JSONL files.
func (k Kind) String() string {
	switch k {
	case PointToPoint:
		return "p2p"
	case Collective:
		return "collective"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Record is one receive event observed at one instrumentation level.
type Record struct {
	// Seq is the position of this event in the per-receiver, per-level
	// stream (0-based).
	Seq int64 `json:"seq"`
	// Time is the simulated time (microseconds) at which the event was
	// recorded.
	Time float64 `json:"time_us"`
	// Receiver is the rank that received the message.
	Receiver int `json:"receiver"`
	// Sender is the rank that sent the message.
	Sender int `json:"sender"`
	// Size is the message payload size in bytes.
	Size int64 `json:"size"`
	// Tag is the MPI tag the message was sent with.
	Tag int `json:"tag"`
	// Kind says whether the message belongs to a point-to-point exchange
	// or to a collective operation.
	Kind Kind `json:"kind"`
	// Op is the name of the MPI operation that produced the message
	// ("send", "bcast", "allreduce", ...).
	Op string `json:"op"`
	// Level is the instrumentation level the record belongs to.
	Level Level `json:"level"`
}

// Trace is the complete set of receive events of one simulated run.
//
// A fully built Trace is safe for concurrent readers: the stream accessors
// (Filter, SenderStream, SizeStream, StreamsOfKind, Characterize, ...)
// share a lazily built per-(receiver, level) index behind a mutex, so a
// cached trace can be evaluated by many goroutines at once. Append is NOT
// safe to call concurrently with readers; grow the trace first, then share
// it.
type Trace struct {
	// App is the workload name ("bt", "cg", "lu", "is", "sweep3d", ...).
	App string
	// Procs is the number of ranks in the run.
	Procs int
	// Records holds all receive events, logical and physical interleaved.
	// Within one (receiver, level) pair they appear in Seq order.
	Records []Record

	// seqCounts assigns per-(receiver, level) sequence numbers in O(1);
	// it is rebuilt lazily when a trace is loaded from disk.
	seqCounts map[streamKey]int64

	// indexMu guards index. The index maps each (receiver, level) pair to
	// its records and pre-extracted sender/size streams so the per-call
	// O(len(Records)) scans of the seed implementation happen at most once
	// per trace instead of once per query.
	indexMu sync.RWMutex
	index   map[streamKey]*streamIndex
}

type streamKey struct {
	receiver int
	level    Level
}

// streamIndex holds the per-(receiver, level) view of a trace: the records
// in Seq order plus the two value streams the predictor consumes. The
// slices are owned by the index and must be treated as read-only.
type streamIndex struct {
	recs    []Record
	senders []int64
	sizes   []int64
}

// New returns an empty trace for the given workload and process count.
func New(app string, procs int) *Trace {
	return &Trace{App: app, Procs: procs, seqCounts: make(map[streamKey]int64)}
}

// Append adds a record, assigning its per-receiver, per-level sequence
// number. It is the only supported way to grow a trace.
func (t *Trace) Append(r Record) {
	if t.seqCounts == nil {
		t.seqCounts = make(map[streamKey]int64)
		for _, existing := range t.Records {
			k := streamKey{existing.Receiver, existing.Level}
			if existing.Seq >= t.seqCounts[k] {
				t.seqCounts[k] = existing.Seq + 1
			}
		}
	}
	k := streamKey{r.Receiver, r.Level}
	r.Seq = t.seqCounts[k]
	t.seqCounts[k]++
	t.Records = append(t.Records, r)
	if t.index != nil {
		t.indexMu.Lock()
		t.index = nil
		t.indexMu.Unlock()
	}
}

// Grow pre-allocates capacity for n additional records, so bulk appends
// (the physical-level flush at the end of a simulation) do not repeatedly
// reallocate the backing array.
func (t *Trace) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(t.Records) - len(t.Records); free < n {
		grown := make([]Record, len(t.Records), len(t.Records)+n)
		copy(grown, t.Records)
		t.Records = grown
	}
}

// Len returns the total number of records at both levels.
func (t *Trace) Len() int { return len(t.Records) }

// stream returns the index entry for one (receiver, level) pair, building
// the whole index on first use. The returned entry is shared and read-only.
func (t *Trace) stream(receiver int, level Level) *streamIndex {
	k := streamKey{receiver, level}
	t.indexMu.RLock()
	idx := t.index
	t.indexMu.RUnlock()
	if idx == nil {
		t.indexMu.Lock()
		if t.index == nil {
			t.index = buildIndex(t.Records)
		}
		idx = t.index
		t.indexMu.Unlock()
	}
	si := idx[k]
	if si == nil {
		si = &streamIndex{}
	}
	return si
}

// buildIndex groups the records by (receiver, level) in one pass and
// extracts the sender and size streams. Append assigns Seq numbers
// monotonically, so within one key the records are already in Seq order;
// the stable sort below only reorders records of traces assembled by other
// means, preserving the seed implementation's Filter semantics exactly.
func buildIndex(records []Record) map[streamKey]*streamIndex {
	counts := make(map[streamKey]int)
	for i := range records {
		counts[streamKey{records[i].Receiver, records[i].Level}]++
	}
	idx := make(map[streamKey]*streamIndex, len(counts))
	for k, n := range counts {
		idx[k] = &streamIndex{recs: make([]Record, 0, n)}
	}
	for i := range records {
		k := streamKey{records[i].Receiver, records[i].Level}
		idx[k].recs = append(idx[k].recs, records[i])
	}
	for _, si := range idx {
		recs := si.recs
		if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq }) {
			sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
		}
		si.senders = make([]int64, len(recs))
		si.sizes = make([]int64, len(recs))
		for i := range recs {
			si.senders[i] = int64(recs[i].Sender)
			si.sizes[i] = recs[i].Size
		}
	}
	return idx
}

// Filter returns the records of one receiver at one level, in Seq order.
// The result is a fresh slice the caller may modify.
func (t *Trace) Filter(receiver int, level Level) []Record {
	si := t.stream(receiver, level)
	out := make([]Record, len(si.recs))
	copy(out, si.recs)
	return out
}

// SenderStream returns the sequence of sender ranks observed by receiver
// at the given level — the first of the two streams the paper predicts.
// The result is a fresh slice the caller may modify.
func (t *Trace) SenderStream(receiver int, level Level) []int64 {
	si := t.stream(receiver, level)
	out := make([]int64, len(si.senders))
	copy(out, si.senders)
	return out
}

// SizeStream returns the sequence of message sizes observed by receiver at
// the given level — the second stream the paper predicts. The result is a
// fresh slice the caller may modify.
func (t *Trace) SizeStream(receiver int, level Level) []int64 {
	si := t.stream(receiver, level)
	out := make([]int64, len(si.sizes))
	copy(out, si.sizes)
	return out
}

// SenderStreamShared returns the indexed sender stream without copying.
// The slice is shared with the trace and must be treated as read-only; the
// evaluation hot path uses it to avoid one allocation per query.
func (t *Trace) SenderStreamShared(receiver int, level Level) []int64 {
	return t.stream(receiver, level).senders
}

// SizeStreamShared returns the indexed size stream without copying. The
// slice is shared with the trace and must be treated as read-only.
func (t *Trace) SizeStreamShared(receiver int, level Level) []int64 {
	return t.stream(receiver, level).sizes
}

// StreamsOfKind returns the sender and size streams of one receiver at one
// level restricted to the given message kind. Figure 1 of the paper shows
// the iterative point-to-point pattern of BT without the handful of setup
// and verification collectives, which this restriction reproduces.
func (t *Trace) StreamsOfKind(receiver int, level Level, kind Kind) (senders, sizes []int64) {
	for _, r := range t.stream(receiver, level).recs {
		if r.Kind != kind {
			continue
		}
		senders = append(senders, int64(r.Sender))
		sizes = append(sizes, r.Size)
	}
	return senders, sizes
}

// Receivers returns the ranks that received at least one message, sorted.
func (t *Trace) Receivers() []int {
	seen := map[int]bool{}
	for _, r := range t.Records {
		seen[r.Receiver] = true
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Characterization summarises the message stream received by one process,
// reproducing one row of Table 1 of the paper.
type Characterization struct {
	App       string
	Procs     int
	Receiver  int
	P2PMsgs   int // number of point-to-point messages received
	CollMsgs  int // number of collective-generated messages received
	MsgSizes  int // number of frequently appearing distinct message sizes
	Senders   int // number of frequently appearing distinct sender ranks
	AllSizes  int // number of distinct sizes including rare ones
	AllSender int // number of distinct senders including rare ones
}

// Characterize computes the Table 1 row for one receiver. The paper's
// footnote explains that the size and sender columns count the
// *frequently appearing* values; coverage controls the cumulative
// frequency threshold used for that notion (the Table 1 experiment uses
// 0.99).
func (t *Trace) Characterize(receiver int, level Level, coverage float64) Characterization {
	recs := t.stream(receiver, level).recs
	c := Characterization{App: t.App, Procs: t.Procs, Receiver: receiver}
	sizes := stats.NewHist()
	senders := stats.NewHist()
	for _, r := range recs {
		switch r.Kind {
		case PointToPoint:
			c.P2PMsgs++
		case Collective:
			c.CollMsgs++
		}
		sizes.Add(r.Size)
		senders.Add(int64(r.Sender))
	}
	c.MsgSizes = len(sizes.Frequent(coverage))
	c.Senders = len(senders.Frequent(coverage))
	c.AllSizes = sizes.Distinct()
	c.AllSender = senders.Distinct()
	return c
}
