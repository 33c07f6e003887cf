package evalx

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"mpipredict/internal/strategy"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

func corpusPath(name string) string {
	return filepath.Join("..", "..", "testdata", "corpus", name)
}

var corpusTraces = []string{"bt.4.mpts", "cg.4.mpts", "lu.4.mpts", "is.4.mpts", "sweep3d.6.mpts"}

// resultsEqual compares every field of two Results, including the exact
// per-horizon hit/total counters.
func resultsEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.App != want.App || got.Procs != want.Procs || got.Receiver != want.Receiver || got.Strategy != want.Strategy {
		t.Errorf("%s: identity mismatch: got (%s,%d,%d,%s), want (%s,%d,%d,%s)", label,
			got.App, got.Procs, got.Receiver, got.Strategy, want.App, want.Procs, want.Receiver, want.Strategy)
	}
	if got.Characterization != want.Characterization {
		t.Errorf("%s: characterization = %+v, want %+v", label, got.Characterization, want.Characterization)
	}
	for _, level := range []trace.Level{trace.Logical, trace.Physical} {
		for kind, pair := range map[string][2]StreamAccuracy{
			"sender": {got.Sender[level], want.Sender[level]},
			"size":   {got.Size[level], want.Size[level]},
		} {
			g, w := pair[0], pair[1]
			if g.Samples != w.Samples {
				t.Errorf("%s: %s/%v samples = %d, want %d", label, kind, level, g.Samples, w.Samples)
			}
			for k := range w.Hits {
				if g.Hits[k] != w.Hits[k] || g.Total[k] != w.Total[k] {
					t.Errorf("%s: %s/%v horizon +%d = %d/%d, want %d/%d", label, kind, level, k+1,
						g.Hits[k], g.Total[k], w.Hits[k], w.Total[k])
				}
			}
		}
	}
	if got.SenderSetAccuracy != want.SenderSetAccuracy {
		t.Errorf("%s: set accuracy = %v, want %v", label, got.SenderSetAccuracy, want.SenderSetAccuracy)
	}
	if got.Reordering != want.Reordering {
		t.Errorf("%s: reordering = %v, want %v", label, got.Reordering, want.Reordering)
	}
}

// TestEvaluateSourceMatchesEvaluateTraceOnCorpus is the acceptance test
// of the streaming evaluator: for every corpus trace and every registered
// strategy, EvaluateSource over the streamed file is hit-for-hit
// identical to EvaluateTrace over the materialized trace.
func TestEvaluateSourceMatchesEvaluateTraceOnCorpus(t *testing.T) {
	for _, name := range corpusTraces {
		path := corpusPath(name)
		tr, err := trace.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
		receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range strategy.Names() {
			opts := Options{Strategy: strat, NoCache: true}
			want, err := EvaluateTrace(tr, receiver, opts)
			if err != nil {
				t.Fatalf("%s/%s: EvaluateTrace: %v", name, strat, err)
			}
			got, err := EvaluateSource(stream.FileOpener(path), receiver, opts)
			if err != nil {
				t.Fatalf("%s/%s: EvaluateSource: %v", name, strat, err)
			}
			resultsEqual(t, name+"/"+strat, got, want)
		}
	}
}

// TestEvaluateSourceStreamScorerMatchesEvaluateStream cross-checks the
// incremental scorer against the historical batch loop on raw streams,
// including the awkward lengths around the horizon boundary.
func TestEvaluateSourceStreamScorerMatchesEvaluateStream(t *testing.T) {
	patterns := [][]int64{
		{},
		{5},
		{1, 2, 3},
		{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2},
	}
	long := make([]int64, 500)
	for i := range long {
		long[i] = int64(i % 7)
	}
	patterns = append(patterns, long)
	for _, stream := range patterns {
		for _, h := range []int{1, 3, 5} {
			want := EvaluateStream(stream, nil, h)
			sc := newStreamScorer(DefaultPredictor(), h)
			for _, v := range stream {
				sc.push(v)
			}
			got := sc.finish()
			if got.Samples != want.Samples {
				t.Fatalf("len=%d h=%d: samples %d != %d", len(stream), h, got.Samples, want.Samples)
			}
			for k := range want.Hits {
				if got.Hits[k] != want.Hits[k] || got.Total[k] != want.Total[k] {
					t.Errorf("len=%d h=%d +%d: %d/%d, want %d/%d", len(stream), h, k+1,
						got.Hits[k], got.Total[k], want.Hits[k], want.Total[k])
				}
			}
		}
	}
}

// TestSetScorerMatchesSetAccuracy does the same for the order-free score.
func TestSetScorerMatchesSetAccuracy(t *testing.T) {
	streams := [][]int64{
		{},
		{1, 2},
		{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 2, 1, 3},
	}
	long := make([]int64, 400)
	for i := range long {
		long[i] = int64(i % 9)
	}
	streams = append(streams, long)
	for _, s := range streams {
		for _, w := range []int{1, 5} {
			want := setAccuracy(s, w)
			sc := newSetScorer(DefaultPredictor(), w)
			for _, v := range s {
				sc.push(v)
			}
			if got := sc.finish(); got != want {
				t.Errorf("len=%d w=%d: set accuracy %v, want %v", len(s), w, got, want)
			}
		}
	}
}

// evalAllocBytes measures the heap bytes EvaluateSource allocates over a
// synthetic stream of the given length.
func evalAllocBytes(t *testing.T, events int) uint64 {
	t.Helper()
	cfg := trace.SynthConfig{
		App: "synth", Procs: 5, Receiver: 0,
		Pattern: []trace.SynthMessage{
			{Sender: 1, Size: 64}, {Sender: 2, Size: 128}, {Sender: 3, Size: 64}, {Sender: 4, Size: 256},
		},
		Events:          events,
		SwapProbability: 0.1,
		Seed:            11,
	}
	open := func() (stream.Source, error) { return stream.SynthSource(cfg), nil }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := EvaluateSource(open, 0, Options{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEvaluateSourceMemoryIndependentOfTraceLength is the acceptance
// criterion's memory test: evaluating a 16x longer stream must not
// allocate meaningfully more, because blocks, scorer rings and predictor
// state are all bounded. (The batch path allocates the full streams up
// front, linear in the trace.)
func TestEvaluateSourceMemoryIndependentOfTraceLength(t *testing.T) {
	small := evalAllocBytes(t, 4_000)
	large := evalAllocBytes(t, 64_000)
	// Allow generous constant slack for GC bookkeeping noise, but reject
	// anything resembling linear growth (16x the events).
	if large > 2*small+1<<20 {
		t.Errorf("allocations grew with trace length: %d bytes for 4k events, %d for 64k", small, large)
	}
}

// TestPerturbedAndMergedCorpusAccuracy pins the robustness transforms
// end to end: a fixed-seed perturbation of a corpus trace produces the
// exact same accuracy on every run, and the recorded deltas document how
// the DPD degrades as arrival noise grows.
func TestPerturbedAndMergedCorpusAccuracy(t *testing.T) {
	const tolerance = 1e-12
	baseline := func(path string, receiver int) Result {
		res, err := EvaluateSource(stream.FileOpener(path), receiver, Options{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	tests := []struct {
		name string
		cfg  stream.PerturbConfig
		// wantMean is the mean +1..+5 physical sender accuracy of the
		// perturbed bt.4 stream; wantDelta the drop from the pristine
		// trace. Values pinned from a reference run — deterministic for
		// the fixed seed. The zero-delta swap rows are themselves the
		// finding: sparse adjacent transpositions leave the DPD's hit
		// counts untouched (its locked pattern already absorbs the local
		// reorder Figure 2 illustrates), while event loss breaks the
		// period alignment and moves accuracy in either direction.
		wantMean  float64
		wantDelta float64
	}{
		{
			name:     "no perturbation",
			cfg:      stream.PerturbConfig{Seed: 1},
			wantMean: 0, wantDelta: 0, // identity case, checked against the baseline
		},
		{
			name:      "sparse adjacent swaps",
			cfg:       stream.PerturbConfig{SwapProbability: 0.2, PhysicalOnly: true, Seed: 1},
			wantMean:  0.425038679340682,
			wantDelta: 0,
		},
		{
			name:      "dense adjacent swaps",
			cfg:       stream.PerturbConfig{SwapProbability: 0.35, PhysicalOnly: true, Seed: 2},
			wantMean:  0.425038679340682,
			wantDelta: 0,
		},
		{
			name:      "swap and loss",
			cfg:       stream.PerturbConfig{SwapProbability: 0.5, DropProbability: 0.1, PhysicalOnly: true, Seed: 2},
			wantMean:  0.398993866924901,
			wantDelta: 0.026044812415781,
		},
		{
			name:      "swap and loss, adversarial seed",
			cfg:       stream.PerturbConfig{SwapProbability: 0.5, DropProbability: 0.1, PhysicalOnly: true, Seed: 9},
			wantMean:  0.014358974358974,
			wantDelta: 0.410679704981708,
		},
	}

	path := corpusPath("bt.4.mpts")
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
	if err != nil {
		t.Fatal(err)
	}
	base := baseline(path, receiver)
	baseMean := base.Sender[trace.Physical].Mean()

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			open := func() (stream.Source, error) {
				src, err := stream.OpenFile(path)
				if err != nil {
					return nil, err
				}
				return stream.Perturb(src, tt.cfg), nil
			}
			res, err := EvaluateSource(open, receiver, Options{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			mean := res.Sender[trace.Physical].Mean()
			if tt.name == "no perturbation" {
				if mean != baseMean {
					t.Fatalf("identity perturbation changed accuracy: %v != %v", mean, baseMean)
				}
				return
			}
			if math.Abs(mean-tt.wantMean) > tolerance {
				t.Errorf("perturbed mean = %.15f, want %.15f", mean, tt.wantMean)
			}
			if delta := baseMean - mean; math.Abs(delta-tt.wantDelta) > tolerance {
				t.Errorf("accuracy delta = %.15f, want %.15f", delta, tt.wantDelta)
			}
			// Determinism: a second evaluation over a fresh perturbed
			// source reproduces the numbers bit for bit.
			again, err := EvaluateSource(open, receiver, Options{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if again.Sender[trace.Physical].Mean() != mean {
				t.Error("same seed produced a different perturbed accuracy")
			}
		})
	}
}

// setAccuracy is the direct oracle of the set scorer: it measures the
// order-free accuracy of Section 5.3: before each
// observation the predictor forecasts the multiset of the next `window`
// values; the score at that position is the fraction of the actual next
// `window` values that the forecast covers (multiset intersection /
// window). Abstentions score zero. The result is the average over all
// positions with a full window ahead. The paper's DPD predicts.
func setAccuracy(stream []int64, window int) float64 {
	p := DefaultPredictor()
	var sum float64
	var count int
	// predicted is reused (cleared) across positions; allocating it once
	// instead of once per observation keeps the scoring loop allocation
	// free.
	predicted := make(map[int64]int, window)
	for i := range stream {
		if i+window <= len(stream) {
			count++
			clear(predicted)
			ok := true
			for k := 1; k <= window; k++ {
				v, o := p.Predict(k)
				if !o {
					ok = false
					break
				}
				predicted[v]++
			}
			if ok {
				matched := 0
				for k := 0; k < window; k++ {
					v := stream[i+k]
					if predicted[v] > 0 {
						predicted[v]--
						matched++
					}
				}
				sum += float64(matched) / float64(window)
			}
		}
		p.Observe(stream[i])
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
