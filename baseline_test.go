package mpipredict

// The related-work comparison of Section 6 of the paper: the DPD against
// single-next-value heuristics in the style of Afsahi & Dimopoulos and
// Markov-chain predictors. The baselines live here, beside the one
// benchmark that reports them, and are deliberately not registered as
// strategies: the meta strategy's default experts are every other
// registered strategy, and registering them would change what meta
// serves. They consume a stream of int64 observations (sender ranks or
// message sizes) and answer Predict(k) for the value expected k
// observations ahead; baselines that can only predict the immediate next
// value abstain for k > 1, exactly the limitation the paper attributes to
// them, and the evaluation harness counts abstentions as mispredictions.

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"mpipredict/internal/core"
	"mpipredict/internal/evalx"
	"mpipredict/internal/strategy"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracecache"
	"mpipredict/internal/workloads"
)

// baseline is an online, single-stream value predictor of the Section 6
// comparison.
type baseline interface {
	// Name identifies the predictor in reports.
	Name() string
	// Observe feeds the next observed value of the stream.
	Observe(x int64)
	// Predict returns the value expected k observations ahead (k >= 1).
	// ok is false when the predictor abstains.
	Predict(k int) (value int64, ok bool)
	// Reset returns the predictor to its initial, untrained state.
	Reset()
}

// sectionSix lists the predictors of the comparison by report name,
// sorted: the paper's DPD and the baselines, as strategies the evaluation
// harness can score.
var sectionSix = []struct {
	name string
	new  evalx.PredictorFactory
}{
	{"cycle", func() strategy.Strategy { return baselineStrategy{NewCycle(512)} }},
	{"dpd", evalx.DefaultPredictor},
	{"last-value", func() strategy.Strategy { return baselineStrategy{NewLastValue()} }},
	{"markov1", func() strategy.Strategy { return baselineStrategy{NewMarkov(1)} }},
	{"markov2", func() strategy.Strategy { return baselineStrategy{NewMarkov(2)} }},
	{"most-frequent", func() strategy.Strategy { return baselineStrategy{NewMostFrequent(64)} }},
	{"successor", func() strategy.Strategy { return baselineStrategy{NewSuccessor()} }},
}

// baselineStrategy runs a baseline under the evaluation harness. Series
// and set queries go through Predict; the baselines are never served, so
// Snapshot and Restore panic.
type baselineStrategy struct{ baseline }

func (b baselineStrategy) Desc() strategy.Desc { return strategy.Desc{Name: b.Name()} }

func (b baselineStrategy) PredictSeriesInto(dst []core.Prediction, count int) []core.Prediction {
	for k := 1; k <= count; k++ {
		v, ok := b.Predict(k)
		dst = append(dst, core.Prediction{Ahead: k, Value: v, OK: ok})
	}
	return dst
}

func (b baselineStrategy) PredictSetInto(dst []int64, count int) ([]int64, bool) {
	for k := 1; k <= count; k++ {
		v, ok := b.Predict(k)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
	}
	return dst, true
}

func (baselineStrategy) Snapshot() []byte { panic("Section 6 baselines are never served") }

func (baselineStrategy) Restore([]byte) error { panic("Section 6 baselines are never served") }

// LastValue predicts that the next value equals the last observed value.
// It is the simplest heuristic baseline; it only answers +1 queries.
type LastValue struct {
	last int64
	seen bool
}

// NewLastValue returns a LastValue predictor.
func NewLastValue() *LastValue { return &LastValue{} }

// Name implements baseline.
func (p *LastValue) Name() string { return "last-value" }

// Observe implements baseline.
func (p *LastValue) Observe(x int64) { p.last, p.seen = x, true }

// Predict implements baseline.
func (p *LastValue) Predict(k int) (int64, bool) {
	if !p.seen || k != 1 {
		return 0, false
	}
	return p.last, true
}

// Reset implements baseline.
func (p *LastValue) Reset() { *p = LastValue{} }

// MostFrequent predicts the most frequent value over a sliding window of
// recent history, for every horizon. It captures "message-destination
// locality" (Kim & Lilja) without any temporal structure.
type MostFrequent struct {
	window []int64
	size   int
	counts map[int64]int
}

// NewMostFrequent returns a predictor with the given window size.
func NewMostFrequent(window int) *MostFrequent {
	if window < 1 {
		window = 1
	}
	return &MostFrequent{size: window, counts: make(map[int64]int)}
}

// Name implements baseline.
func (p *MostFrequent) Name() string { return "most-frequent" }

// Observe implements baseline.
func (p *MostFrequent) Observe(x int64) {
	p.window = append(p.window, x)
	p.counts[x]++
	if len(p.window) > p.size {
		old := p.window[0]
		p.window = p.window[1:]
		p.counts[old]--
		if p.counts[old] == 0 {
			delete(p.counts, old)
		}
	}
}

// Predict implements baseline.
func (p *MostFrequent) Predict(k int) (int64, bool) {
	if k < 1 || len(p.window) == 0 {
		return 0, false
	}
	best := int64(0)
	bestCount := -1
	for v, c := range p.counts {
		if c > bestCount || (c == bestCount && v < best) {
			best, bestCount = v, c
		}
	}
	return best, true
}

// Reset implements baseline.
func (p *MostFrequent) Reset() {
	p.window = nil
	p.counts = make(map[int64]int)
}

// Markov is an order-k Markov-chain predictor: it counts transitions from
// the last `order` observed values to the next value and predicts the most
// frequent continuation. Multi-step predictions chain the most likely
// transitions. The paper points out that such models need more training
// than the DPD and do not expose the pattern length.
//
// Note: strategy.Markov1 (the serving/eval-grade "markov1" of the
// strategy registry) is a distinct implementation with a different
// tie-break (earliest-interned value rather than smallest value) chosen
// for exact snapshot/restore; on successor ties the two can disagree.
type Markov struct {
	order   int
	history []int64
	// table maps a context (encoded history) to counts of successors.
	table map[string]map[int64]int
}

// NewMarkov returns an order-`order` Markov predictor (order >= 1).
func NewMarkov(order int) *Markov {
	if order < 1 {
		order = 1
	}
	return &Markov{order: order, table: make(map[string]map[int64]int)}
}

// Name implements baseline.
func (p *Markov) Name() string { return fmt.Sprintf("markov%d", p.order) }

func contextKey(ctx []int64) string {
	key := make([]byte, 0, len(ctx)*9)
	for _, v := range ctx {
		for shift := 0; shift < 64; shift += 8 {
			key = append(key, byte(v>>shift))
		}
		key = append(key, ',')
	}
	return string(key)
}

// Observe implements baseline.
func (p *Markov) Observe(x int64) {
	if len(p.history) == p.order {
		key := contextKey(p.history)
		succ := p.table[key]
		if succ == nil {
			succ = make(map[int64]int)
			p.table[key] = succ
		}
		succ[x]++
	}
	p.history = append(p.history, x)
	if len(p.history) > p.order {
		p.history = p.history[1:]
	}
}

// Predict implements baseline.
func (p *Markov) Predict(k int) (int64, bool) {
	if k < 1 || len(p.history) < p.order {
		return 0, false
	}
	ctx := make([]int64, p.order)
	copy(ctx, p.history)
	var last int64
	for step := 0; step < k; step++ {
		succ, ok := p.table[contextKey(ctx)]
		if !ok || len(succ) == 0 {
			return 0, false
		}
		best := int64(0)
		bestCount := -1
		for v, c := range succ {
			if c > bestCount || (c == bestCount && v < best) {
				best, bestCount = v, c
			}
		}
		last = best
		ctx = append(ctx[1:], best)
	}
	return last, true
}

// Reset implements baseline.
func (p *Markov) Reset() {
	p.history = nil
	p.table = make(map[string]map[int64]int)
}

// Cycle is a single-cycle heuristic in the spirit of the message
// predictors of Afsahi & Dimopoulos: it records the sequence of values
// observed between two occurrences of the same "anchor" value (the first
// value ever seen) and then replays that cycle. Unlike the DPD it commits
// to the first cycle it sees and has no notion of a distance metric or of
// confidence; a change of pattern silently degrades its accuracy.
type Cycle struct {
	maxLen   int
	anchor   int64
	haveAnch bool
	building []int64
	cycle    []int64
	pos      int // position in cycle of the next expected value
}

// NewCycle returns a Cycle predictor that gives up on cycles longer than
// maxLen values.
func NewCycle(maxLen int) *Cycle {
	if maxLen < 2 {
		maxLen = 2
	}
	return &Cycle{maxLen: maxLen}
}

// Name implements baseline.
func (p *Cycle) Name() string { return "cycle" }

// Observe implements baseline.
func (p *Cycle) Observe(x int64) {
	if !p.haveAnch {
		p.anchor = x
		p.haveAnch = true
		p.building = append(p.building, x)
		return
	}
	if p.cycle == nil {
		if x == p.anchor && len(p.building) > 0 {
			// Cycle closed: it spans from the anchor up to (not including)
			// this repetition.
			p.cycle = append([]int64(nil), p.building...)
			p.pos = 1 % len(p.cycle) // we just saw cycle[0] again
			return
		}
		p.building = append(p.building, x)
		if len(p.building) > p.maxLen {
			// Give up and restart from the most recent value.
			p.anchor = x
			p.building = p.building[:0]
			p.building = append(p.building, x)
		}
		return
	}
	// Replaying: advance the phase regardless of whether the observation
	// matched (the heuristic has no recovery rule).
	p.pos = (p.pos + 1) % len(p.cycle)
}

// Predict implements baseline.
func (p *Cycle) Predict(k int) (int64, bool) {
	if k < 1 || p.cycle == nil {
		return 0, false
	}
	return p.cycle[(p.pos+k-1)%len(p.cycle)], true
}

// Reset implements baseline.
func (p *Cycle) Reset() { *p = Cycle{maxLen: p.maxLen} }

// Successor predicts that the value following v is whatever followed v
// the last time v was observed ("last successor" pairing heuristic). It
// answers only +1 queries.
type Successor struct {
	next map[int64]int64
	last int64
	seen bool
}

// NewSuccessor returns a Successor predictor.
func NewSuccessor() *Successor {
	return &Successor{next: make(map[int64]int64)}
}

// Name implements baseline.
func (p *Successor) Name() string { return "successor" }

// Observe implements baseline.
func (p *Successor) Observe(x int64) {
	if p.seen {
		p.next[p.last] = x
	}
	p.last = x
	p.seen = true
}

// Predict implements baseline.
func (p *Successor) Predict(k int) (int64, bool) {
	if k != 1 || !p.seen {
		return 0, false
	}
	v, ok := p.next[p.last]
	return v, ok
}

// Reset implements baseline.
func (p *Successor) Reset() {
	p.next = make(map[int64]int64)
	p.seen = false
	p.last = 0
}

func repeat(pattern []int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// feed sends the stream into p and returns the +1 accuracy measured the
// same way the evaluation harness does (abstentions count as misses).
func feed(p interface {
	Observe(int64)
	Predict(int) (int64, bool)
}, stream []int64, warmup int) float64 {
	hits, total := 0, 0
	for i, x := range stream {
		if i >= warmup {
			total++
			if v, ok := p.Predict(1); ok && v == x {
				hits++
			}
		}
		p.Observe(x)
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// btLogicalSenders is the stream the Section 6 comparison scores: the
// typical receiver's logical sender stream of BT.9, seed 1, default
// network.
func btLogicalSenders(tb testing.TB) []int64 {
	tb.Helper()
	spec := workloads.Spec{Name: "bt", Procs: 9}
	recv, err := workloads.TypicalReceiver(spec.Name, spec.Procs)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := tracecache.Shared.Get(workloads.RunConfig{Spec: spec, Net: DefaultNetworkConfig(), Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return tr.SenderStream(recv, trace.Logical)
}

// BenchmarkBaselineComparison regenerates the Section 6 comparison: the
// DPD predicts several future values, whereas the single-next-value
// heuristics of the related work cannot answer +5 queries at all and the
// Markov baselines need chaining. The metric is the +5 sender accuracy of
// each predictor on the BT.9 logical stream.
func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stream := btLogicalSenders(b)
		for _, p := range sectionSix {
			acc := evalx.EvaluateStream(stream, p.new, 5)
			b.ReportMetric(100*acc.Accuracy(5), p.name+"-plus5-%")
		}
	}
}

// TestBaselineComparisonPinned pins every per-horizon hit count of the
// Section 6 comparison, so the numbers BenchmarkBaselineComparison
// reports cannot drift silently.
func TestBaselineComparisonPinned(t *testing.T) {
	stream := btLogicalSenders(t)
	wantTotal := []int{3609, 3608, 3607, 3606, 3605}
	wantHits := map[string][]int{
		"cycle":         {607, 606, 606, 606, 606},
		"dpd":           {3567, 3565, 3564, 3563, 3562},
		"last-value":    {1207, 0, 0, 0, 0},
		"markov1":       {1003, 804, 604, 604, 404},
		"markov2":       {3181, 3180, 2779, 2381, 1982},
		"most-frequent": {213, 211, 209, 208, 207},
		"successor":     {204, 0, 0, 0, 0},
	}
	if len(sectionSix) != len(wantHits) {
		t.Fatalf("comparison has %d predictors, pin has %d", len(sectionSix), len(wantHits))
	}
	for _, p := range sectionSix {
		acc := evalx.EvaluateStream(stream, p.new, 5)
		if !reflect.DeepEqual(acc.Hits, wantHits[p.name]) || !reflect.DeepEqual(acc.Total, wantTotal) {
			t.Errorf("%s: hits %v of %v, want %v of %v", p.name, acc.Hits, acc.Total, wantHits[p.name], wantTotal)
		}
	}
	// The registered markov1 strategy breaks successor ties toward the
	// earliest-interned value rather than the smallest, which on this
	// stream halves its +5 hits — one reason the baselines stay
	// unregistered.
	acc := evalx.EvaluateStream(stream, func() strategy.Strategy { return strategy.NewMarkov1() }, 5)
	if acc.Hits[4] != 205 {
		t.Errorf("strategy markov1 +5 hits = %d, want 205", acc.Hits[4])
	}
}

func TestLastValue(t *testing.T) {
	p := NewLastValue()
	if _, ok := p.Predict(1); ok {
		t.Error("untrained LastValue must abstain")
	}
	p.Observe(5)
	if v, ok := p.Predict(1); !ok || v != 5 {
		t.Errorf("Predict(1)=%d,%v want 5,true", v, ok)
	}
	if _, ok := p.Predict(2); ok {
		t.Error("LastValue must abstain for k > 1")
	}
	p.Observe(9)
	if v, _ := p.Predict(1); v != 9 {
		t.Errorf("after new observation Predict(1)=%d want 9", v)
	}
	p.Reset()
	if _, ok := p.Predict(1); ok {
		t.Error("reset LastValue must abstain")
	}
}

func TestLastValueAccuracyOnAlternatingStream(t *testing.T) {
	// On a strictly alternating stream last-value is always wrong; the DPD
	// is essentially always right. This is the qualitative gap the paper's
	// related-work section describes.
	stream := repeat([]int64{1, 2}, 400)
	lv := feed(NewLastValue(), stream, 50)
	dpd := feed(strategy.NewDPD(core.DefaultConfig()), stream, 50)
	if lv > 0.01 {
		t.Errorf("last-value accuracy on alternating stream = %.3f, want ~0", lv)
	}
	if dpd < 0.99 {
		t.Errorf("dpd accuracy on alternating stream = %.3f, want ~1", dpd)
	}
}

func TestMostFrequent(t *testing.T) {
	p := NewMostFrequent(4)
	if _, ok := p.Predict(1); ok {
		t.Error("empty MostFrequent must abstain")
	}
	for _, x := range []int64{7, 7, 3, 7} {
		p.Observe(x)
	}
	if v, ok := p.Predict(1); !ok || v != 7 {
		t.Errorf("Predict=%d,%v want 7,true", v, ok)
	}
	if v, ok := p.Predict(5); !ok || v != 7 {
		t.Errorf("MostFrequent answers any horizon; got %d,%v", v, ok)
	}
	// Slide the window so that 7 falls out of favour.
	for _, x := range []int64{3, 3, 3} {
		p.Observe(x)
	}
	if v, _ := p.Predict(1); v != 3 {
		t.Errorf("after sliding, Predict=%d want 3", v)
	}
	p.Reset()
	if _, ok := p.Predict(1); ok {
		t.Error("reset MostFrequent must abstain")
	}
}

func TestMostFrequentWindowClamp(t *testing.T) {
	p := NewMostFrequent(0)
	p.Observe(1)
	p.Observe(2)
	if v, ok := p.Predict(1); !ok || v != 2 {
		t.Errorf("window clamps to 1, so prediction should be the last value; got %d,%v", v, ok)
	}
}

func TestMarkovOrder1(t *testing.T) {
	p := NewMarkov(1)
	if p.Name() != "markov1" {
		t.Errorf("name=%q", p.Name())
	}
	if _, ok := p.Predict(1); ok {
		t.Error("untrained Markov must abstain")
	}
	for _, x := range repeat([]int64{1, 2, 3}, 60) {
		p.Observe(x)
	}
	// After ...,1,2,3 the last value is 3 (60 samples end with 3).
	if v, ok := p.Predict(1); !ok || v != 1 {
		t.Errorf("Predict(1)=%d,%v want 1,true", v, ok)
	}
	if v, ok := p.Predict(2); !ok || v != 2 {
		t.Errorf("Predict(2) by chaining=%d,%v want 2,true", v, ok)
	}
	if v, ok := p.Predict(3); !ok || v != 3 {
		t.Errorf("Predict(3) by chaining=%d,%v want 3,true", v, ok)
	}
	p.Reset()
	if _, ok := p.Predict(1); ok {
		t.Error("reset Markov must abstain")
	}
}

func TestMarkovOrderClamped(t *testing.T) {
	p := NewMarkov(0)
	if p.order != 1 {
		t.Errorf("order clamps to 1, got %d", p.order)
	}
}

func TestMarkovOrder2DisambiguatesContext(t *testing.T) {
	// Pattern 1,2,1,3: after "1" alone the next value is ambiguous (2 or
	// 3), but after the pair (2,1) it is always 3 and after (3,1) it is 2.
	stream := repeat([]int64{1, 2, 1, 3}, 200)
	m1 := NewMarkov(1)
	m2 := NewMarkov(2)
	acc1 := feed(m1, stream, 40)
	acc2 := feed(m2, stream, 40)
	if acc2 < 0.95 {
		t.Errorf("order-2 Markov should be nearly perfect on this stream, got %.3f", acc2)
	}
	if acc1 > 0.80 {
		t.Errorf("order-1 Markov cannot disambiguate; expected <= 0.80, got %.3f", acc1)
	}
}

func TestCyclePredictor(t *testing.T) {
	p := NewCycle(512)
	if _, ok := p.Predict(1); ok {
		t.Error("untrained Cycle must abstain")
	}
	stream := repeat([]int64{5, 6, 7, 8}, 40)
	acc := feed(p, stream, 8)
	if acc < 0.99 {
		t.Errorf("cycle predictor accuracy on clean stream = %.3f, want ~1", acc)
	}
}

func TestCyclePredictorGivesUpOnOverlongCycle(t *testing.T) {
	p := NewCycle(2)
	// anchor=1; values never repeat within maxLen, so the builder restarts.
	for _, x := range []int64{1, 2, 3, 4, 5, 6} {
		p.Observe(x)
	}
	if _, ok := p.Predict(1); ok {
		t.Error("cycle predictor should still be untrained")
	}
}

func TestCyclePredictorNoRecoveryAfterPatternChange(t *testing.T) {
	// The cycle heuristic commits to the first cycle and never recovers;
	// the DPD relearns. This is the qualitative difference of Section 6.
	// A small DPD window keeps the relearning transient short relative to
	// the length of the second phase.
	stream := append(repeat([]int64{1, 2, 3}, 90), repeat([]int64{7, 8, 9, 10}, 600)...)
	cycleAcc := feed(NewCycle(512), stream, 120)
	dpdAcc := feed(strategy.NewDPD(core.Config{WindowSize: 64, MaxLag: 24}), stream, 120)
	if dpdAcc < 0.9 {
		t.Errorf("dpd accuracy after pattern change = %.3f, want >= 0.9", dpdAcc)
	}
	if cycleAcc > 0.5 {
		t.Errorf("cycle accuracy after pattern change = %.3f, expected to stay low", cycleAcc)
	}
}

func TestSuccessor(t *testing.T) {
	p := NewSuccessor()
	if _, ok := p.Predict(1); ok {
		t.Error("untrained Successor must abstain")
	}
	for _, x := range []int64{1, 2, 3, 1} {
		p.Observe(x)
	}
	if v, ok := p.Predict(1); !ok || v != 2 {
		t.Errorf("successor of 1 should be 2, got %d,%v", v, ok)
	}
	if _, ok := p.Predict(2); ok {
		t.Error("Successor must abstain for k > 1")
	}
	p.Observe(9) // 1 -> 9 overwrites 1 -> 2
	p.Observe(1)
	if v, _ := p.Predict(1); v != 9 {
		t.Errorf("successor of 1 should now be 9, got %d", v)
	}
	p.Reset()
	if _, ok := p.Predict(1); ok {
		t.Error("reset Successor must abstain")
	}
}

func TestDPDMultiStepBeatsSingleStepBaselines(t *testing.T) {
	// +5 prediction: only the DPD (and chained Markov) can answer at all.
	stream := repeat([]int64{1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 7}, 300)
	dpd := strategy.NewDPD(core.DefaultConfig())
	lv := NewLastValue()
	succ := NewSuccessor()
	hitsDPD, total := 0, 0
	for i, x := range stream {
		if i >= 100 && i+4 < len(stream) {
			total++
			if v, ok := dpd.Predict(5); ok && v == stream[i+4] {
				hitsDPD++
			}
			if _, ok := lv.Predict(5); ok {
				t.Fatal("last-value must abstain at +5")
			}
			if _, ok := succ.Predict(5); ok {
				t.Fatal("successor must abstain at +5")
			}
		}
		dpd.Observe(x)
		lv.Observe(x)
		succ.Observe(x)
	}
	if acc := float64(hitsDPD) / float64(total); acc < 0.95 {
		t.Errorf("dpd +5 accuracy = %.3f, want >= 0.95", acc)
	}
}

// Property: no predictor of the comparison panics and Predict never
// reports ok before any observation, for arbitrary streams. The baselines
// run through baselineStrategy, so the wrapper's Reset and Desc are
// exercised too.
func TestPredictorsNeverPanicAndAbstainWhenEmpty(t *testing.T) {
	for _, p := range sectionSix {
		s := p.new()
		if s.Desc().Name != p.name {
			t.Errorf("%s: Desc().Name = %q", p.name, s.Desc().Name)
		}
		if _, ok := s.Predict(1); ok {
			t.Errorf("%s: fresh predictor must abstain", p.name)
		}
	}
	f := func(raw []uint8, ks []uint8) bool {
		for _, p := range sectionSix {
			s := p.new()
			for _, b := range raw {
				s.Observe(int64(b % 6))
				for _, kb := range ks {
					s.Predict(int(kb%7) - 1) // includes k <= 0
				}
			}
			s.Reset()
			if _, ok := s.Predict(1); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPredictorsObservePredict(b *testing.B) {
	pattern := repeat([]int64{1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 7}, 1024)
	for _, p := range sectionSix {
		b.Run(p.name, func(b *testing.B) {
			s := p.new()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Observe(pattern[i%len(pattern)])
				s.Predict(1)
			}
		})
	}
}
