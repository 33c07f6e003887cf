package evalx

// Streaming evaluation: the same Section 5 measurement protocol as
// EvaluateStream and the order-free set score, reorganized around block
// sources so a trace of any length is scored in constant memory. The
// batch entry points (EvaluateTrace, Table1RowFromTrace) are thin
// wrappers over this path — one code path, pinned hit-for-hit on the
// golden corpus.
//
// The protocol inversion that makes it streamable: the batch scorer asks,
// at position i, "what will elements i..i+h-1 be?" and looks them up in
// the slice; the incremental scorer records those predictions in a ring
// of h pending slots and settles each one when its target element
// arrives. Predictions whose targets never arrive (the last h-1 of the
// stream) are simply never settled — exactly the positions the batch
// loop skips. Predict is read-only for every predictor in the repo, so
// the handful of extra Predict calls near the end of the stream cannot
// perturb the learned state.

import (
	"fmt"
	"io"

	"mpipredict/internal/stats"
	"mpipredict/internal/strategy"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
)

// pendingPred is one not-yet-settled prediction: made for horizon k,
// awaiting the arrival of its target element.
type pendingPred struct {
	k     int
	value int64
	ok    bool
}

// streamScorer scores one stream incrementally, reproducing
// EvaluateStream exactly (same Hits/Total/Samples for any stream).
type streamScorer struct {
	horizons int
	p        strategy.Strategy
	samples  int
	hits     []int
	total    []int
	// slots[t%horizons] holds the predictions targeting element t. The h
	// targets in flight at any moment are consecutive, so they occupy
	// distinct slots; each slot's slice is reused after settling.
	slots [][]pendingPred
}

func newStreamScorer(p strategy.Strategy, horizons int) *streamScorer {
	s := &streamScorer{
		horizons: horizons,
		p:        p,
		hits:     make([]int, horizons),
		total:    make([]int, horizons),
		slots:    make([][]pendingPred, horizons),
	}
	for i := range s.slots {
		s.slots[i] = make([]pendingPred, 0, horizons)
	}
	return s
}

func (s *streamScorer) push(v int64) {
	i := s.samples
	// Predictions made before observing element i, targeting i..i+h-1.
	for k := 1; k <= s.horizons; k++ {
		pv, ok := s.p.Predict(k)
		t := i + k - 1
		s.slots[t%s.horizons] = append(s.slots[t%s.horizons], pendingPred{k: k, value: pv, ok: ok})
	}
	// Settle everything targeting element i, from this and earlier steps.
	slot := s.slots[i%s.horizons]
	for _, e := range slot {
		s.total[e.k-1]++
		if e.ok && e.value == v {
			s.hits[e.k-1]++
		}
	}
	s.slots[i%s.horizons] = slot[:0]
	s.p.Observe(v)
	s.samples++
}

func (s *streamScorer) finish() StreamAccuracy {
	return StreamAccuracy{Samples: s.samples, Hits: s.hits, Total: s.total}
}

// setWindow is one in-flight order-free scoring window (Section 5.3).
type setWindow struct {
	active    bool
	ok        bool
	matched   int
	remaining int
	predicted map[int64]int
}

// setScorer scores the order-free set accuracy of Section 5.3
// incrementally (the tests check it against a direct batch loop,
// setAccuracy in source_test.go): each arriving element opens a window
// (the next-`window` multiset forecast) and feeds every window still in
// flight; a window settles when its last element arrives, so windows
// reaching past the end of the stream never count — exactly the positions
// the batch loop skips.
type setScorer struct {
	window int
	p      strategy.Strategy
	i      int
	sum    float64
	count  int
	wins   []setWindow
}

func newSetScorer(p strategy.Strategy, window int) *setScorer {
	s := &setScorer{window: window, p: p, wins: make([]setWindow, window)}
	for i := range s.wins {
		s.wins[i].predicted = make(map[int64]int, window)
	}
	return s
}

func (s *setScorer) push(v int64) {
	// Open the window anchored at this position. Its slot was freed when
	// the window anchored `window` positions earlier settled.
	w := &s.wins[s.i%s.window]
	w.active, w.ok, w.matched, w.remaining = true, true, 0, s.window
	clear(w.predicted)
	for k := 1; k <= s.window; k++ {
		pv, ok := s.p.Predict(k)
		if !ok {
			w.ok = false
			break
		}
		w.predicted[pv]++
	}
	// Feed every in-flight window (the one just opened included: its
	// forecast was made before observing this element).
	for j := range s.wins {
		w := &s.wins[j]
		if !w.active {
			continue
		}
		if w.ok && w.predicted[v] > 0 {
			w.predicted[v]--
			w.matched++
		}
		w.remaining--
		if w.remaining == 0 {
			s.count++
			if w.ok {
				s.sum += float64(w.matched) / float64(s.window)
			}
			w.active = false
		}
	}
	s.p.Observe(v)
	s.i++
}

func (s *setScorer) finish() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// charScorer accumulates the Table 1 characterisation of one stream.
type charScorer struct {
	p2p, coll      int
	sizes, senders *stats.Hist
}

func newCharScorer() *charScorer {
	return &charScorer{sizes: stats.NewHist(), senders: stats.NewHist()}
}

func (c *charScorer) push(kind trace.Kind, sender, size int64) {
	switch kind {
	case trace.PointToPoint:
		c.p2p++
	case trace.Collective:
		c.coll++
	}
	c.sizes.Add(size)
	c.senders.Add(sender)
}

func (c *charScorer) finish(app string, procs, receiver int, coverage float64) trace.Characterization {
	return trace.Characterization{
		App: app, Procs: procs, Receiver: receiver,
		P2PMsgs: c.p2p, CollMsgs: c.coll,
		MsgSizes: len(c.sizes.Frequent(coverage)), Senders: len(c.senders.Frequent(coverage)),
		AllSizes: c.sizes.Distinct(), AllSender: c.senders.Distinct(),
	}
}

// EvaluateSource evaluates prediction accuracy for one receiver over a
// streamed event source — the constant-memory sibling of EvaluateTrace,
// and the engine under it. The open function is invoked once for the
// scoring pass and twice more for the logical-vs-physical reordering
// comparison (two stream views advance in lockstep there), so it must
// yield a fresh source over the same events on every call; file replays
// pass stream.FileOpener, in-memory callers a TraceSource closure.
// Peak memory is a few blocks plus the predictors' own bounded state,
// independent of the trace length.
func EvaluateSource(open stream.OpenFunc, receiver int, opts Options) (Result, error) {
	opts = opts.withDefaults()
	factory, name, err := opts.factory()
	if err != nil {
		return Result{}, err
	}
	src, err := open()
	if err != nil {
		return Result{}, err
	}
	defer stream.Close(src)
	md, _ := stream.MetaOf(src)

	logSender := newStreamScorer(factory(), DefaultHorizons)
	logSize := newStreamScorer(factory(), DefaultHorizons)
	phySender := newStreamScorer(factory(), DefaultHorizons)
	phySize := newStreamScorer(factory(), DefaultHorizons)
	set := newSetScorer(factory(), DefaultHorizons)
	char := newCharScorer()

	var b stream.EventBlock
	for {
		err := src.Next(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, err
		}
		for i := 0; i < b.Len(); i++ {
			if b.Receiver[i] != receiver {
				continue
			}
			switch b.Level[i] {
			case trace.Logical:
				logSender.push(b.Sender[i])
				logSize.push(b.Size[i])
				char.push(b.Kind[i], b.Sender[i], b.Size[i])
			case trace.Physical:
				phySender.push(b.Sender[i])
				phySize.push(b.Size[i])
				set.push(b.Sender[i])
			}
		}
	}
	if logSender.samples == 0 {
		return Result{}, fmt.Errorf("evalx: receiver %d has no logical records in trace %q", receiver, md.App)
	}

	reordering, err := reorderingFromSource(open, receiver)
	if err != nil {
		return Result{}, err
	}
	return Result{
		App:              md.App,
		Procs:            md.Procs,
		Receiver:         receiver,
		Strategy:         name,
		Characterization: char.finish(md.App, md.Procs, receiver, 0.99),
		Sender: map[trace.Level]StreamAccuracy{
			trace.Logical:  logSender.finish(),
			trace.Physical: phySender.finish(),
		},
		Size: map[trace.Level]StreamAccuracy{
			trace.Logical:  logSize.finish(),
			trace.Physical: phySize.finish(),
		},
		SenderSetAccuracy: set.finish(),
		Reordering:        reordering,
	}, nil
}

// senderIter pulls the sender values of one (receiver, level) stream out
// of a source, one value at a time.
type senderIter struct {
	src      stream.Source
	b        stream.EventBlock
	i        int
	receiver int
	level    trace.Level
}

func (it *senderIter) next() (int64, bool, error) {
	for {
		for it.i < it.b.Len() {
			j := it.i
			it.i++
			if it.b.Receiver[j] == it.receiver && it.b.Level[j] == it.level {
				return it.b.Sender[j], true, nil
			}
		}
		err := it.src.Next(&it.b)
		it.i = 0
		if err == io.EOF {
			return 0, false, nil
		}
		if err != nil {
			return 0, false, err
		}
	}
}

// reorderingFromSource computes MismatchFraction between the logical and
// physical sender streams of one receiver by advancing two views of the
// source in lockstep — constant memory, because neither stream is ever
// materialized.
func reorderingFromSource(open stream.OpenFunc, receiver int) (float64, error) {
	logSrc, err := open()
	if err != nil {
		return 0, err
	}
	defer stream.Close(logSrc)
	phySrc, err := open()
	if err != nil {
		return 0, err
	}
	defer stream.Close(phySrc)
	logical := &senderIter{src: logSrc, receiver: receiver, level: trace.Logical}
	physical := &senderIter{src: phySrc, receiver: receiver, level: trace.Physical}

	var common, diff, excess int
	for {
		lv, lok, err := logical.next()
		if err != nil {
			return 0, err
		}
		pv, pok, err := physical.next()
		if err != nil {
			return 0, err
		}
		switch {
		case lok && pok:
			common++
			if lv != pv {
				diff++
			}
			continue
		case lok || pok:
			// One stream is longer; count its excess, which the batch
			// MismatchFraction treats as mismatches.
			rest := logical
			if pok {
				rest = physical
			}
			excess++
			for {
				_, ok, err := rest.next()
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				excess++
			}
		}
		break
	}
	longest := common + excess
	if longest == 0 {
		return 0, nil
	}
	return float64(diff+excess) / float64(longest), nil
}

// Table1RowFromSource characterises one receiver of a streamed trace as a
// Table 1 row — the constant-memory sibling of Table1RowFromTrace,
// consuming the source in a single pass.
func Table1RowFromSource(open stream.OpenFunc, receiver int) (Table1Row, error) {
	src, err := open()
	if err != nil {
		return Table1Row{}, err
	}
	defer stream.Close(src)
	md, _ := stream.MetaOf(src)
	char := newCharScorer()
	var b stream.EventBlock
	for {
		err := src.Next(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Table1Row{}, err
		}
		for i := 0; i < b.Len(); i++ {
			if b.Receiver[i] != receiver || b.Level[i] != trace.Logical {
				continue
			}
			char.push(b.Kind[i], b.Sender[i], b.Size[i])
		}
	}
	c := char.finish(md.App, md.Procs, receiver, 0.99)
	row := Table1Row{
		App:      c.App,
		Procs:    c.Procs,
		Receiver: receiver,
		P2PMsgs:  c.P2PMsgs,
		CollMsgs: c.CollMsgs,
		MsgSizes: c.MsgSizes,
		Senders:  c.Senders,
	}
	if ref, ok := PaperTable1[table1Key{c.App, c.Procs}]; ok {
		row.PaperP2P = ref.P2P
		row.PaperColl = ref.Coll
		row.PaperSizes = ref.Sizes
		row.PaperSend = ref.Senders
	}
	return row, nil
}
