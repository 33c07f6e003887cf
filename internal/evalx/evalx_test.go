package evalx

import (
	"reflect"
	"strings"
	"testing"

	"mpipredict/internal/core"
	"mpipredict/internal/simnet"
	"mpipredict/internal/strategy"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

func repeat(pattern []int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

func TestEvaluateStreamPerfectlyPeriodic(t *testing.T) {
	stream := repeat([]int64{1, 2, 5, 7, 9}, 600)
	acc := EvaluateStream(stream, nil, 5)
	if acc.Samples != 600 {
		t.Errorf("samples=%d want 600", acc.Samples)
	}
	for k := 1; k <= 5; k++ {
		if a := acc.Accuracy(k); a < 0.95 {
			t.Errorf("+%d accuracy=%.3f want >= 0.95 on a perfectly periodic stream", k, a)
		}
	}
	if acc.Mean() < 0.95 {
		t.Errorf("mean accuracy=%.3f want >= 0.95", acc.Mean())
	}
	if !strings.Contains(acc.String(), "+1:") {
		t.Errorf("String() should mention horizons: %q", acc.String())
	}
}

func TestEvaluateStreamCountsLearningAsMisses(t *testing.T) {
	// A very short stream: the learning phase dominates, so accuracy must
	// be visibly below 1 even though the stream is perfectly periodic.
	// This is the IS.4 effect from Figure 3 of the paper.
	short := repeat([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 100)
	long := repeat([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2000)
	shortAcc := EvaluateStream(short, nil, 5).Accuracy(1)
	longAcc := EvaluateStream(long, nil, 5).Accuracy(1)
	if shortAcc >= longAcc {
		t.Errorf("short stream accuracy (%.3f) should be below long stream accuracy (%.3f)", shortAcc, longAcc)
	}
	if longAcc < 0.95 {
		t.Errorf("long stream accuracy=%.3f want >= 0.95", longAcc)
	}
}

func TestEvaluateStreamDefaults(t *testing.T) {
	acc := EvaluateStream(repeat([]int64{1, 2}, 50), nil, 0)
	if len(acc.Hits) != DefaultHorizons {
		t.Errorf("default horizons=%d want %d", len(acc.Hits), DefaultHorizons)
	}
	if a := acc.Accuracy(0); a != 0 {
		t.Errorf("out-of-range horizon should be 0, got %v", a)
	}
	if a := acc.Accuracy(99); a != 0 {
		t.Errorf("out-of-range horizon should be 0, got %v", a)
	}
	empty := EvaluateStream(nil, nil, 3)
	if empty.Mean() != 0 || empty.Accuracy(1) != 0 {
		t.Error("empty stream should have zero accuracy")
	}
}

// singleStep abstains beyond +1, like the single-next-value heuristics of
// the paper's related work, and otherwise defers to the wrapped strategy.
type singleStep struct{ strategy.Strategy }

func (s singleStep) Predict(k int) (int64, bool) {
	if k != 1 {
		return 0, false
	}
	return s.Strategy.Predict(k)
}

func TestEvaluateStreamWithBaselinePredictor(t *testing.T) {
	stream := repeat([]int64{1, 2}, 400)
	lv := EvaluateStream(stream, func() strategy.Strategy { return singleStep{strategy.NewLastValue()} }, 5)
	if lv.Accuracy(1) > 0.05 {
		t.Errorf("last-value on alternating stream should be ~0, got %.3f", lv.Accuracy(1))
	}
	if lv.Accuracy(5) != 0 {
		t.Errorf("last-value abstains at +5, accuracy should be 0, got %.3f", lv.Accuracy(5))
	}
}

func TestSetAccuracy(t *testing.T) {
	// scoreSet is the order-free accuracy EvaluateSource reports.
	scoreSet := func(stream []int64, window int) float64 {
		sc := newSetScorer(DefaultPredictor(), window)
		for _, v := range stream {
			sc.push(v)
		}
		return sc.finish()
	}
	stream := repeat([]int64{4, 7, 9}, 500)
	if a := scoreSet(stream, 3); a < 0.95 {
		t.Errorf("set accuracy on periodic stream=%.3f want >= 0.95", a)
	}
	if a := scoreSet(nil, 3); a != 0 {
		t.Errorf("set accuracy of empty stream should be 0, got %v", a)
	}

	// A stream whose *order* is scrambled within each period but whose
	// content repeats: ordered accuracy drops, set accuracy stays high.
	// Build period-6 blocks holding the same multiset in varying order.
	blocks := [][]int64{
		{1, 2, 3, 1, 2, 3},
		{2, 1, 3, 3, 1, 2},
		{3, 2, 1, 2, 3, 1},
	}
	var scrambled []int64
	for i := 0; i < 120; i++ {
		scrambled = append(scrambled, blocks[i%len(blocks)]...)
	}
	ordered := EvaluateStream(scrambled, nil, 6).Mean()
	set := scoreSet(scrambled, 6)
	if set <= ordered {
		t.Errorf("set accuracy (%.3f) should exceed ordered accuracy (%.3f) on scrambled-order streams", set, ordered)
	}
	if set < 0.8 {
		t.Errorf("set accuracy=%.3f want >= 0.8: the multiset of the next 6 values is predictable", set)
	}
}

func TestMismatchFraction(t *testing.T) {
	if MismatchFraction(nil, nil) != 0 {
		t.Error("two empty streams match")
	}
	a := []int64{1, 2, 3, 4}
	if MismatchFraction(a, a) != 0 {
		t.Error("identical streams match")
	}
	b := []int64{1, 9, 3, 8}
	if got := MismatchFraction(a, b); got != 0.5 {
		t.Errorf("mismatch=%v want 0.5", got)
	}
	c := []int64{1, 2}
	if got := MismatchFraction(a, c); got != 0.5 {
		t.Errorf("length mismatch counts as disagreement: got %v want 0.5", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Net == (simnet.Config{}) {
		t.Error("default net config should be filled in")
	}
	factory, name, err := o.factory()
	if err != nil || factory == nil || name != "dpd" {
		t.Fatalf("default predictor factory should resolve to dpd, got (%q, %v)", name, err)
	}
	if p := factory(); p.Desc().Name != "dpd" {
		t.Errorf("default predictor should be the DPD, got %s", p.Desc())
	}
}

func smallOpts() Options {
	return Options{Net: simnet.DefaultConfig(), Seed: 5, Iterations: 20}
}

func TestRunExperimentBT4(t *testing.T) {
	res, err := RunExperiment(workloads.Spec{Name: "bt", Procs: 4}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "bt" || res.Procs != 4 {
		t.Errorf("metadata wrong: %+v", res)
	}
	wantRecv, _ := workloads.TypicalReceiver("bt", 4)
	if res.Receiver != wantRecv {
		t.Errorf("receiver=%d want %d", res.Receiver, wantRecv)
	}
	if res.Characterization.P2PMsgs != 20*12 {
		t.Errorf("characterization p2p=%d want 240", res.Characterization.P2PMsgs)
	}
	logicalSender := res.Sender[trace.Logical]
	if logicalSender.Samples == 0 {
		t.Fatal("no logical sender samples")
	}
	if logicalSender.Accuracy(1) < 0.8 {
		t.Errorf("logical sender +1 accuracy=%.3f want >= 0.8 even on a short run", logicalSender.Accuracy(1))
	}
	if res.Size[trace.Logical].Accuracy(1) < 0.8 {
		t.Errorf("logical size +1 accuracy=%.3f want >= 0.8", res.Size[trace.Logical].Accuracy(1))
	}
	// Physical accuracy exists and is between 0 and 1.
	phys := res.Sender[trace.Physical].Accuracy(1)
	if phys < 0 || phys > 1 {
		t.Errorf("physical accuracy out of range: %v", phys)
	}
	if res.Reordering < 0 || res.Reordering > 1 {
		t.Errorf("reordering fraction out of range: %v", res.Reordering)
	}
	if res.SenderSetAccuracy < 0 || res.SenderSetAccuracy > 1 {
		t.Errorf("set accuracy out of range: %v", res.SenderSetAccuracy)
	}
	if got := res.Accuracy(SenderStream, trace.Logical, 1); got != logicalSender.Accuracy(1) {
		t.Error("Result.Accuracy accessor disagrees with the stored accuracy")
	}
	if got := res.Accuracy("bogus", trace.Logical, 1); got != 0 {
		t.Errorf("unknown stream kind should give 0, got %v", got)
	}
}

func TestRunExperimentLogicalBeatsPhysicalUnderHeavyNoise(t *testing.T) {
	opts := smallOpts()
	opts.Iterations = 30
	opts.Net.JitterFrac = 0.6
	opts.Net.ImbalanceFrac = 0.5
	res, err := RunExperiment(workloads.Spec{Name: "bt", Procs: 9}, opts)
	if err != nil {
		t.Fatal(err)
	}
	logical := res.Sender[trace.Logical].Mean()
	physical := res.Sender[trace.Physical].Mean()
	if logical <= physical {
		t.Errorf("logical accuracy (%.3f) should exceed physical accuracy (%.3f) under heavy noise", logical, physical)
	}
	if res.Reordering == 0 {
		t.Error("heavy noise should cause some physical reordering")
	}
}

func TestRunExperimentInvalidSpec(t *testing.T) {
	if _, err := RunExperiment(workloads.Spec{Name: "bt", Procs: 5}, Options{}); err == nil {
		t.Error("invalid spec should fail")
	}
	if _, err := RunExperiment(workloads.Spec{Name: "zzz", Procs: 4}, Options{}); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestEvaluateTraceMissingReceiver(t *testing.T) {
	tr := trace.New("x", 2)
	if _, err := EvaluateTrace(tr, 0, Options{}); err == nil {
		t.Error("a trace without records for the receiver should fail")
	}
}

func TestTable1Single(t *testing.T) {
	opts := Options{Net: simnet.NoiselessConfig(), Iterations: 11}
	row, err := table1SingleCached(workloads.Spec{Name: "is", Procs: 4}, opts, optsCache(opts))
	if err != nil {
		t.Fatal(err)
	}
	if row.App != "is" || row.Procs != 4 {
		t.Errorf("row metadata wrong: %+v", row)
	}
	if row.P2PMsgs != 11 {
		t.Errorf("is.4 p2p=%d want 11", row.P2PMsgs)
	}
	if row.PaperP2P != 11 || row.PaperColl != 89 || row.PaperSizes != 3 || row.PaperSend != 4 {
		t.Errorf("paper reference values not attached: %+v", row)
	}
	if row.CollMsgs < 80 || row.CollMsgs > 95 {
		t.Errorf("is.4 collective msgs=%d want close to the paper's 89", row.CollMsgs)
	}
}

func TestTable1SingleInvalid(t *testing.T) {
	if _, err := table1SingleCached(workloads.Spec{Name: "bt", Procs: 7}, Options{}.withDefaults(), optsCache(Options{})); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestFigure1PeriodIs18(t *testing.T) {
	res, err := Figure1(Options{Net: simnet.NoiselessConfig(), Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.SenderPeriod != PaperFigure1Period {
		t.Errorf("sender period=%d want %d", res.SenderPeriod, PaperFigure1Period)
	}
	if res.SizePeriod != PaperFigure1Period {
		t.Errorf("size period=%d want %d", res.SizePeriod, PaperFigure1Period)
	}
	if len(res.SenderExcerpt) == 0 || len(res.SenderExcerpt) != len(res.SizeExcerpt) {
		t.Errorf("excerpt lengths wrong: %d vs %d", len(res.SenderExcerpt), len(res.SizeExcerpt))
	}
	// The excerpt itself must repeat with period 18.
	for i := 18; i < len(res.SenderExcerpt); i++ {
		if res.SenderExcerpt[i] != res.SenderExcerpt[i-18] {
			t.Fatalf("sender excerpt not periodic at %d", i)
		}
	}
}

func TestFigure2ShowsReorderingUnderNoise(t *testing.T) {
	noisy := simnet.DefaultConfig()
	noisy.JitterFrac = 0.5
	res, err := Figure2(Options{Net: noisy, Seed: 3, Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Logical) != len(res.Physical) || len(res.Logical) == 0 {
		t.Fatalf("stream lengths wrong: %d vs %d", len(res.Logical), len(res.Physical))
	}
	if res.MismatchPercent <= 0 {
		t.Error("with jitter the physical stream should deviate from the logical one somewhere")
	}
	if res.MismatchPercent > 100 {
		t.Errorf("mismatch percent out of range: %v", res.MismatchPercent)
	}

	clean, err := Figure2(Options{Net: simnet.NoiselessConfig(), Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if clean.MismatchPercent < 0 || clean.MismatchPercent > 30 {
		t.Errorf("without noise reordering should be small, got %.1f%%", clean.MismatchPercent)
	}
}

func TestAccuracyFigureAndSweep(t *testing.T) {
	// A reduced sweep over two configurations to keep the test fast: use
	// SweepAll's building blocks directly.
	opts := smallOpts()
	specs := []workloads.Spec{
		{Name: "bt", Procs: 4},
		{Name: "cg", Procs: 4},
	}
	var results []Result
	for _, s := range specs {
		res, err := RunExperiment(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	logical, physical := FiguresFromResults(opts, results)
	if logical.Level != trace.Logical || physical.Level != trace.Physical {
		t.Error("figure levels mislabelled")
	}
	wantCells := len(specs) * 2 * DefaultHorizons
	if len(logical.Cells) != wantCells || len(physical.Cells) != wantCells {
		t.Errorf("cell counts=%d/%d want %d", len(logical.Cells), len(physical.Cells), wantCells)
	}
	if logical.MinAccuracy("bt", SenderStream) < 0.5 {
		t.Errorf("bt logical sender accuracy too low: %.3f", logical.MinAccuracy("bt", SenderStream))
	}
	if logical.MeanAccuracy("", SizeStream) <= 0 {
		t.Error("mean logical size accuracy should be positive")
	}
	if got := logical.MinAccuracy("nope", SenderStream); got != 0 {
		t.Errorf("unknown app should give 0, got %v", got)
	}
	if got := logical.MeanAccuracy("nope", SenderStream); got != 0 {
		t.Errorf("unknown app should give 0, got %v", got)
	}
}

func TestPaperTable1CoversAllSpecs(t *testing.T) {
	for _, spec := range workloads.PaperSpecs() {
		if _, ok := PaperTable1[table1Key{spec.Name, spec.Procs}]; !ok {
			t.Errorf("PaperTable1 is missing %s.%d", spec.Name, spec.Procs)
		}
	}
	if len(PaperTable1) != 19 {
		t.Errorf("PaperTable1 has %d rows, want 19", len(PaperTable1))
	}
}

func TestDefaultPredictorIsDPD(t *testing.T) {
	p := DefaultPredictor()
	if p.Desc().Name != "dpd" {
		t.Errorf("default predictor=%s want dpd", p.Desc())
	}
	// And it must be usable.
	for _, x := range repeat([]int64{1, 2, 3}, 60) {
		p.Observe(x)
	}
	if v, ok := p.Predict(1); !ok || v == 0 && false {
		_ = v
	} else if !ok {
		t.Error("default predictor should predict after training")
	}
}

func TestEvaluateStreamWithCustomDPDConfig(t *testing.T) {
	stream := repeat([]int64{1, 2, 3, 4, 5, 6}, 300)
	factory := func() strategy.Strategy {
		return strategy.NewDPD(core.Config{WindowSize: 32, MaxLag: 16})
	}
	acc := EvaluateStream(stream, factory, 3)
	if acc.Accuracy(1) < 0.9 {
		t.Errorf("custom DPD config accuracy=%.3f want >= 0.9", acc.Accuracy(1))
	}
}

// TestOptionsStrategySelectsPredictor pins the declarative strategy
// selection: an explicit "dpd" strategy is hit-for-hit identical to the
// default path, a baseline strategy actually changes the evaluation, and
// unknown names fail loudly.
func TestOptionsStrategySelectsPredictor(t *testing.T) {
	spec := workloads.Spec{Name: "bt", Procs: 4}
	base := Options{Seed: 1, Iterations: 2}

	def, err := RunExperiment(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	if def.Strategy != "dpd" {
		t.Fatalf("default result strategy %q, want dpd", def.Strategy)
	}

	viaName := base
	viaName.Strategy = "dpd"
	got, err := RunExperiment(spec, viaName)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, def) {
		t.Fatal("Strategy \"dpd\" result differs from the default DPD path")
	}

	lv := base
	lv.Strategy = "lastvalue"
	flat, err := RunExperiment(spec, lv)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Strategy != "lastvalue" {
		t.Fatalf("lastvalue result strategy %q", flat.Strategy)
	}
	if reflect.DeepEqual(flat.Sender, def.Sender) {
		t.Fatal("lastvalue produced the same accuracies as the DPD — the strategy was not threaded through")
	}

	bad := base
	bad.Strategy = "no-such-strategy"
	if _, err := RunExperiment(spec, bad); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestCompareStrategies pins the comparison sweep's shape and the headline
// ordering the strategy layer exists to demonstrate: on the periodic BT
// logical stream the DPD beats the lastvalue floor.
func TestCompareStrategies(t *testing.T) {
	specs := []workloads.Spec{{Name: "bt", Procs: 4}, {Name: "lu", Procs: 4}}
	cmp, err := CompareStrategies([]string{"dpd", "lastvalue", "markov1"}, specs, Options{Seed: 1, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 2 || cmp.Horizons != DefaultHorizons {
		t.Fatalf("comparison shape: %+v", cmp)
	}
	for _, row := range cmp.Rows {
		for _, name := range cmp.Strategies {
			if _, ok := row.Logical[name]; !ok {
				t.Fatalf("row %s.%d misses strategy %s", row.App, row.Procs, name)
			}
		}
		if row.Logical["dpd"] <= row.Logical["lastvalue"] {
			t.Errorf("%s.%d: dpd (%.3f) does not beat lastvalue (%.3f) on the logical stream",
				row.App, row.Procs, row.Logical["dpd"], row.Logical["lastvalue"])
		}
	}
}

// TestCompareStrategiesDefaults pins the nil-argument behavior: all
// registered strategies over one representative spec per benchmark.
func TestCompareStrategiesDefaults(t *testing.T) {
	cmp, err := CompareStrategies(nil, nil, Options{Seed: 1, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := ComparisonSpecs()
	if len(cmp.Rows) != len(specs) {
		t.Fatalf("default comparison has %d rows, want %d", len(cmp.Rows), len(specs))
	}
	apps := map[string]bool{}
	for i, row := range cmp.Rows {
		if row.App != specs[i].Name || row.Procs != specs[i].Procs {
			t.Fatalf("row %d is %s.%d, want %s.%d", i, row.App, row.Procs, specs[i].Name, specs[i].Procs)
		}
		apps[row.App] = true
	}
	if len(apps) != 5 {
		t.Fatalf("default specs cover %d distinct workloads, want all 5", len(apps))
	}
	if len(cmp.Strategies) < 3 {
		t.Fatalf("default comparison covers %v, want every registered strategy", cmp.Strategies)
	}
}
