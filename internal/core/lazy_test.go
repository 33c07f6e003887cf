package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"mpipredict/internal/trace"
	_ "mpipredict/internal/tracestore" // registers the .mpts trace format
)

// The detector's counts are lazy: a locked StreamPredictor only pushes
// samples into the window, and the counts catch up, by replay or by
// rebuild, when they are next read. The tests below drive a lazy
// predictor beside two references and compare them after every sample:
//
//   - an eager twin, the same predictor with its detector caught up after
//     every sample, which is how the counts were maintained before they
//     became lazy;
//   - the reference detector of detector_ref_test.go, fed every sample,
//     for the counts themselves.
//
// The lazy detector's counts are read through a caught-up copy, so the
// original stays stale and its own catch-ups span as many samples as the
// stream makes them.

// lazyHarness is one lazy predictor and its two references.
type lazyHarness struct {
	lazy, eager *StreamPredictor
	ref         *refDetector
	clone       Detector
	// catchUps counts the lazy detector's catch-ups by the number of
	// skipped updates they applied, and escapeCatchUps those after which
	// escape-coded samples were live.
	catchUps, escapeCatchUps map[int]int
	// unlocks counts the unlocks seen. After every other one the
	// predictor is queried at once, so its counts catch up in a reader;
	// after the others they catch up in the next learning Observe.
	unlocks int
}

// newLazyHarness builds the predictors through RestoreStreamPredictor so
// cfg is used verbatim, explicit zero fields included.
func newLazyHarness(cfg Config) (*lazyHarness, error) {
	h := &lazyHarness{ref: newRefDetector(cfg), catchUps: map[int]int{}, escapeCatchUps: map[int]int{}}
	var err error
	if h.lazy, err = RestoreStreamPredictor(PredictorSnapshot{Config: cfg}); err != nil {
		return nil, err
	}
	if h.eager, err = RestoreStreamPredictor(PredictorSnapshot{Config: cfg}); err != nil {
		return nil, err
	}
	return h, nil
}

// observe feeds x to all three and compares them.
func (h *lazyHarness) observe(x int64) error {
	caughtUp := 0
	if h.lazy.State() == Learning && h.lazy.det.stale > 0 {
		// A learning observe pushes, then catches up.
		caughtUp = h.lazy.det.stale + 1
	}
	wasLocked := h.lazy.State() == Locked
	h.lazy.Observe(x)
	h.eager.Observe(x)
	h.eager.det.catchUp()
	h.ref.Observe(x)
	if err := compareWithRef(h.eager.det, h.ref); err != nil {
		return fmt.Errorf("eager detector: %v", err)
	}
	cloneDetector(&h.clone, h.lazy.det)
	if err := compareWithRef(&h.clone, h.ref); err != nil {
		return fmt.Errorf("lazy detector after catching up %d samples: %v", h.lazy.det.stale, err)
	}
	if err := checkCodes(&h.clone); err != nil {
		return fmt.Errorf("lazy detector's codes after catching up %d samples: %v", h.lazy.det.stale, err)
	}
	if got, want := h.clone.Periodogram(), h.eager.det.Periodogram(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Periodogram() = %v, want %v", got, want)
	}
	query := true
	if wasLocked && h.lazy.State() == Learning {
		h.unlocks++
		query = h.unlocks%2 == 0
		if query {
			caughtUp = h.lazy.det.stale
		}
	}
	if err := comparePredictors(h.lazy, h.eager, query); err != nil {
		return err
	}
	if h.lazy.State() == Learning && query && h.lazy.det.stale != 0 {
		return fmt.Errorf("learning predictor left %d count updates pending after a query", h.lazy.det.stale)
	}
	if caughtUp > 0 {
		h.catchUps[caughtUp]++
		if h.lazy.det.codes.escapes > 0 {
			h.escapeCatchUps[caughtUp]++
		}
	}
	return nil
}

// cloneDetector makes dst a deep copy of src, reusing dst's buffers.
func cloneDetector(dst, src *Detector) {
	buf, planes, codes := dst.win.buf, dst.planes, dst.codes
	*dst = *src
	dst.win.buf = append(buf[:0], src.win.buf...)
	dst.planes = append(planes[:0], src.planes...)
	dst.codes.buf = append(codes.buf[:0], src.codes.buf...)
	dst.codes.value = append(codes.value[:0], src.codes.value...)
	dst.codes.refs = append(codes.refs[:0], src.codes.refs...)
	dst.codes.free = append(codes.free[:0], src.codes.free...)
	dst.codes.table = append(codes.table[:0], src.codes.table...)
}

// comparePredictors checks the lazy predictor against the eager one:
// state, counters and snapshot always, and with query every prediction
// query too. None of them makes the lazy detector catch up while locked;
// while learning, the queries do.
func comparePredictors(lazy, eager *StreamPredictor, query bool) error {
	if lazy.State() != eager.State() {
		return fmt.Errorf("State() = %v, want %v", lazy.State(), eager.State())
	}
	if lazy.Counters() != eager.Counters() {
		return fmt.Errorf("Counters() = %+v, want %+v", lazy.Counters(), eager.Counters())
	}
	if got, want := lazy.Snapshot(), eager.Snapshot(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Snapshot() = %+v, want %+v", got, want)
	}
	if !query {
		return nil
	}
	gp, gok := lazy.Period()
	wp, wok := eager.Period()
	if gp != wp || gok != wok {
		return fmt.Errorf("Period() = %d,%v, want %d,%v", gp, gok, wp, wok)
	}
	for k := 0; k <= 5; k++ {
		gv, gok := lazy.Predict(k)
		wv, wok := eager.Predict(k)
		if gv != wv || gok != wok {
			return fmt.Errorf("Predict(%d) = %d,%v, want %d,%v", k, gv, gok, wv, wok)
		}
	}
	if got, want := lazy.PredictSeriesInto(nil, 5), eager.PredictSeriesInto(nil, 5); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("PredictSeriesInto = %+v, want %+v", got, want)
	}
	gs, gok := lazy.PredictSetInto(nil, 5)
	ws, wok := eager.PredictSetInto(nil, 5)
	if gok != wok || !reflect.DeepEqual(gs, ws) {
		return fmt.Errorf("PredictSetInto = %v,%v, want %v,%v", gs, gok, ws, wok)
	}
	return nil
}

// churnPattern returns a random pattern of period 1..maxPeriod over a
// small alphabet, so lags other than the period match often.
func churnPattern(r *rand.Rand, maxPeriod int) []int64 {
	pattern := make([]int64, 1+r.Intn(maxPeriod))
	for i := range pattern {
		pattern[i] = int64(r.Intn(5))
	}
	return pattern
}

// runChurn feeds a harness n samples of a perturbed periodic stream that
// locks and unlocks the predictor over and over. Each time the lock has
// lasted a target number of samples, a burst of HoldDown+1 misses drops
// it, so the next catch-up applies the lock's skipped updates plus the
// burst, and the first learning sample when that catches up; the targets
// make that number each of K−1, K and K+1 (K the replay limit) and a few
// others in turn.
// Isolated perturbations keep the counts moving, and the pattern and its
// period change every few thousand samples.
func runChurn(t *testing.T, cfg Config, seed int64, n int) *lazyHarness {
	t.Helper()
	h, err := newLazyHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	k := replayLimit(cfg)
	var targets []int
	for _, want := range []int{k - 1, k, k + 1, 1, k / 2, 2 * k} {
		if lockFor := want - cfg.HoldDown - 2; lockFor > 0 {
			targets = append(targets, lockFor)
		}
	}
	maxPeriod := min(cfg.MaxLag, cfg.WindowSize/2)
	pattern := churnPattern(r, maxPeriod)
	locked, burst, next := 0, 0, 0
	for step := range n {
		if step%2500 == 2499 {
			pattern = churnPattern(r, maxPeriod)
		}
		x := pattern[step%len(pattern)]
		switch {
		case burst > 0:
			x = 1000 + r.Int63n(1000)
			burst--
		case r.Intn(200) == 0:
			x = int64(r.Intn(5))
		}
		if h.lazy.State() == Locked {
			locked++
		} else {
			locked = 0
		}
		if locked > 0 && burst == 0 && locked == targets[next%len(targets)] {
			burst = cfg.HoldDown + 1
			next++
		}
		if err := h.observe(x); err != nil {
			t.Fatalf("%+v, seed %d, sample %d: %v", cfg, seed, step, err)
		}
	}
	return h
}

// churnConfigs are the geometries of the differential tests: the default
// one (replay limit 208) and small ones whose replay limit a stream
// crosses every few dozen samples, one of them with explicit zero
// HoldDown, LockTolerance and RelearnWindow.
func churnConfigs() []Config {
	return []Config{
		DefaultConfig(),
		{WindowSize: 48, MaxLag: 12, MinRepeats: 2, ConfirmRuns: 2, HoldDown: 3, LockTolerance: 0.2, RelearnWindow: 16, RelearnMissRate: 0.3},
		{WindowSize: 33, MaxLag: 32, MinRepeats: 1, ConfirmRuns: 1, HoldDown: 0, LockTolerance: 0, RelearnWindow: 0, RelearnMissRate: 0},
	}
}

// TestLazyDetectorMatchesEagerOnChurn is the differential test over
// lock/unlock streams. It also requires that catch-ups of K−1, K and K+1
// skipped updates happened, and that both replays and rebuilds did.
func TestLazyDetectorMatchesEagerOnChurn(t *testing.T) {
	for i, cfg := range churnConfigs() {
		n := 3000
		if cfg.WindowSize < 100 {
			n = 6000
		}
		h := runChurn(t, cfg, int64(i+1), n)
		k := replayLimit(cfg)
		for _, want := range []int{k - 1, k, k + 1} {
			if h.catchUps[want] == 0 {
				t.Errorf("%+v: no catch-up of %d skipped updates (replay limit %d); seen %v", cfg, want, k, h.catchUps)
			}
		}
		replays, rebuilds := 0, 0
		for size, count := range h.catchUps {
			if size <= k {
				replays += count
			} else {
				rebuilds += count
			}
		}
		if replays == 0 || rebuilds == 0 {
			t.Errorf("%+v: %d replays and %d rebuilds, want both", cfg, replays, rebuilds)
		}
		if c := h.lazy.Counters(); c.Locks < 10 || c.Unlocks < 10 {
			t.Errorf("%+v: only %d locks and %d unlocks", cfg, c.Locks, c.Unlocks)
		}
	}
}

// TestLazyDetectorMatchesEagerAcrossEscapes runs the differential
// harness at the default configuration on rounds of a 300-value cycle,
// more values than the code dictionary holds, followed by a periodic
// stream that the predictor locks onto once it fills most of the window,
// while the cycle's escape-coded samples are still in the code ring. A
// burst of fresh values breaks each lock after about K/2 or K+20
// samples. The pushed samples of the shorter locks are escape-coded when
// they are replayed; a rebuild recodes a window that holds few values, so
// TestDetectorCatchUpAtReplayLimit covers rebuilds with escapes.
func TestLazyDetectorMatchesEagerAcrossEscapes(t *testing.T) {
	cfg := DefaultConfig()
	h, err := newLazyHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := replayLimit(cfg)
	fresh := int64(1 << 20)
	var stream []int64
	for round := range 4 {
		stream = append(stream, cycleThenPeriodic(300, 2, 0)...)
		lockFor := []int{k / 2, k + 20}[round%2]
		for i := range 450 + lockFor {
			stream = append(stream, int64(i%(5+round)))
		}
		for range cfg.HoldDown + 1 {
			stream = append(stream, fresh)
			fresh++
		}
	}
	for step, x := range stream {
		if err := h.observe(x); err != nil {
			t.Fatalf("sample %d: %v", step, err)
		}
	}
	replays, rebuilds := 0, 0
	for size, count := range h.escapeCatchUps {
		if size > 1 && size <= k {
			replays += count
		}
	}
	for size, count := range h.catchUps {
		if size > k {
			rebuilds += count
		}
	}
	if replays == 0 || rebuilds == 0 {
		t.Errorf("%d replays with escape-coded samples live and %d rebuilds, want both; catch-ups %v, with escapes %v", replays, rebuilds, h.catchUps, h.escapeCatchUps)
	}
}

// TestLazyDetectorMatchesEagerOnCorpus runs every sender and size stream
// of every receiver of the golden corpus through the differential
// harness at the default configuration.
func TestLazyDetectorMatchesEagerOnCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.mpts"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	for _, file := range files {
		tr, err := trace.Load(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, receiver := range tr.Receivers() {
			for _, level := range []trace.Level{trace.Logical, trace.Physical} {
				streams := map[string][]int64{
					"sender": tr.SenderStreamShared(receiver, level),
					"size":   tr.SizeStreamShared(receiver, level),
				}
				for kind, stream := range streams {
					h, err := newLazyHarness(DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					for step, x := range stream {
						if err := h.observe(x); err != nil {
							t.Fatalf("%s r%d %v %s, sample %d: %v", filepath.Base(file), receiver, level, kind, step, err)
						}
					}
				}
			}
		}
	}
}

// TestDetectorCatchUpAtReplayLimit pushes exactly K−1, K and K+1 samples
// (and a few other counts) into bare detectors in every window state —
// empty, partly filled, filling up during the pushes, full — and compares
// every count reader with the reference afterwards. The samples come from
// a 3-value alphabet, or from a wide one, so that at the default
// configuration the code dictionary overflows and both catch-ups handle
// escape-coded samples.
func TestDetectorCatchUpAtReplayLimit(t *testing.T) {
	for _, cfg := range churnConfigs() {
		k := replayLimit(cfg)
		w := cfg.WindowSize
		for _, alphabet := range []int64{3, 1 << 40} {
			escaped := false
			for _, prefix := range []int{0, w / 3, w - k/2, w, 3*w + 1} {
				for _, pushes := range []int{1, k - 1, k, k + 1, w + 3} {
					r := rand.New(rand.NewSource(int64(prefix*1000 + pushes)))
					d, ref := newDetector(cfg), newRefDetector(cfg)
					for range prefix {
						x := r.Int63n(alphabet)
						d.Observe(x)
						ref.Observe(x)
					}
					for range pushes {
						x := r.Int63n(alphabet)
						d.push(x)
						ref.Observe(x)
					}
					if err := compareWithRef(d, ref); err != nil {
						t.Fatalf("%+v, %d samples of %d values observed then %d pushed: %v", cfg, prefix, alphabet, pushes, err)
					}
					if err := checkCodes(d); err != nil {
						t.Fatalf("%+v, %d samples of %d values observed then %d pushed: %v", cfg, prefix, alphabet, pushes, err)
					}
					if d.stale != 0 {
						t.Fatalf("%+v: %d updates still pending after a read", cfg, d.stale)
					}
					escaped = escaped || d.codes.escapes > 0
				}
			}
			if wantEscapes := alphabet > 3 && w+k > escapeCode; escaped != wantEscapes {
				t.Errorf("%+v, %d values: escape-coded samples %v, want %v", cfg, alphabet, escaped, wantEscapes)
			}
		}
	}
}

// TestCatchUpZeroAllocs pins both catch-up paths, replay and rebuild, at
// zero allocations: a Locked→Learning transition must not allocate.
func TestCatchUpZeroAllocs(t *testing.T) {
	d := NewDetector(DefaultConfig())
	stream := wideRandomStream(4*d.cfg.WindowSize, 3)
	for _, x := range stream {
		d.Observe(x)
	}
	for _, pushes := range []int{replayLimit(d.cfg), replayLimit(d.cfg) + 1} {
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			for range pushes {
				d.push(stream[i%len(stream)])
				i++
			}
			d.Observe(stream[i%len(stream)])
			i++
		})
		if allocs != 0 {
			t.Errorf("catching up %d pushes allocates %.2f objects, want 0", pushes+1, allocs)
		}
	}
}

// FuzzDetectorLazy runs the differential harness on arbitrary input. The
// first five bytes choose the configuration and a periodic pattern; each
// later byte below 0xc0 continues the pattern, each byte from 0xe0 is the
// value of its low five bits, so runs of high bytes break the lock, and
// each byte in between is a value not seen before. A first byte from 0xc0
// picks a window of 184..247 samples, whose code ring holds more than
// 255, so runs of fresh values overflow the code dictionary; smaller ones
// pick a window of 2..64. Only the first fuzzMaxSamples samples are used
// (three times as many for the wide windows): the fuzzer's comparison
// hooks make every compare of the count loops a call, and a window of at
// most 64 samples repeats its states well within that many samples.
func FuzzDetectorLazy(f *testing.F) {
	seed := func(header []byte, runs ...int) []byte {
		data := append([]byte(nil), header...)
		for i, n := range runs {
			b := byte(0)
			if i%2 == 1 {
				b = 0xff
			}
			for range n {
				data = append(data, b)
			}
		}
		return data
	}
	f.Add(seed([]byte{46, 11, 4, 1, 7}, 120, 5, 30, 4, 200, 8, 90))
	f.Add(seed([]byte{30, 29, 0, 0, 3}, 40, 2, 17, 1, 60))
	f.Add(seed([]byte{62, 20, 7, 5, 40}, 300, 6, 16, 6, 17, 6, 18))
	// Lock, 300 fresh values, relock while they are in the code ring,
	// unlock after a replay-sized and a rebuild-sized lock, and come back.
	wide := []byte{0xd0, 20, 4, 1, 7}
	for _, run := range []struct {
		b byte
		n int
	}{{0, 150}, {0xc0, 300}, {0, 60}, {0xff, 3}, {0, 150}, {0xff, 3}, {0, 400}, {0xc0, 20}, {0, 300}} {
		for range run.n {
			wide = append(wide, run.b)
		}
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		cfg, pattern := fuzzLazySetup(data[:5])
		h, err := newLazyHarness(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		samples := fuzzMaxSamples
		if cfg.WindowSize > 64 {
			samples *= 3
		}
		for i, b := range data[5:min(len(data), 5+samples)] {
			x := pattern[i%len(pattern)]
			switch {
			case b >= 0xe0:
				x = int64(b & 0x1f)
			case b >= 0xc0:
				x = 1<<20 + int64(i)
			}
			if err := h.observe(x); err != nil {
				t.Fatalf("%+v, sample %d: %v", cfg, i, err)
			}
		}
	})
}

// fuzzMaxSamples bounds the samples one FuzzDetectorLazy input feeds.
const fuzzMaxSamples = 512

// fuzzLazySetup decodes the fuzz header: a valid configuration with a
// window of 2..64 samples, or 184..247 when the first byte is at least
// 0xc0, and a pattern of period 1..24 over a 2..6-value alphabet.
func fuzzLazySetup(b []byte) (Config, []int64) {
	w := 2 + int(b[0]%63)
	lags := w - 1
	if b[0] >= 0xc0 {
		w, lags = 184+int(b[0]&0x3f), 48
	}
	cfg := Config{
		WindowSize:      w,
		MaxLag:          1 + int(b[1])%lags,
		MinRepeats:      1 + int(b[2]%3),
		ConfirmRuns:     1 + int(b[3]%3),
		HoldDown:        int(b[2]/3) % 5,
		LockTolerance:   []float64{0, 0.1, 0.2, 0.45}[b[3]/3%4],
		RelearnWindow:   []int{0, 8, 36}[b[2]/15%3],
		RelearnMissRate: 0.3,
	}
	pattern := make([]int64, 1+int(b[4]%24))
	alphabet := 2 + int(b[4]/24%5)
	for i := range pattern {
		pattern[i] = int64((i * 7) % alphabet)
	}
	return cfg, pattern
}
