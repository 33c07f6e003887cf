package strategy

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mpipredict/internal/core"
)

// metaScore replays stream through s with the evaluation harness's
// scoring protocol inlined (evalx imports this package, so the real one
// is unusable here): before observing element i, the +k prediction
// targets element i+k-1; abstentions are misses.
func metaScore(s Strategy, stream []int64, horizons int) (mean float64, per []float64) {
	type rec struct {
		val int64
		ok  bool
	}
	pending := make(map[int]map[int]rec) // target index -> horizon -> prediction
	hits := make([]int, horizons+1)
	scored := make([]int, horizons+1)
	for i, x := range stream {
		for k := 1; k <= horizons; k++ {
			tgt := i + k - 1
			v, ok := s.Predict(k)
			if pending[tgt] == nil {
				pending[tgt] = map[int]rec{}
			}
			pending[tgt][k] = rec{v, ok}
		}
		for k, r := range pending[i] {
			scored[k]++
			if r.ok && r.val == x {
				hits[k]++
			}
		}
		delete(pending, i)
		s.Observe(x)
	}
	per = make([]float64, horizons)
	sum := 0.0
	for k := 1; k <= horizons; k++ {
		if scored[k] > 0 {
			per[k-1] = float64(hits[k]) / float64(scored[k])
		}
		sum += per[k-1]
	}
	return sum / float64(horizons), per
}

// twoRegimeStream concatenates two regimes with different winners: a
// period-4 pattern the DPD locks onto (markov1 ties on 1→{2,3} and
// lastvalue never repeats consecutively), then irregular runs of fresh
// values where lastvalue shines and the DPD finds no stable period.
func twoRegimeStream() []int64 {
	var s []int64
	for i := 0; i < 300; i++ {
		s = append(s, []int64{1, 2, 1, 3}[i%4])
	}
	runs := []int{5, 3, 8, 4, 6, 9, 3, 7, 5, 4, 8, 6, 3, 9, 5, 7, 4, 6, 8, 3, 5, 9, 4, 7, 6, 3, 8, 5, 9, 4, 7, 3, 6, 5, 8}
	v := int64(100)
	for _, r := range runs {
		for j := 0; j < r; j++ {
			s = append(s, v)
		}
		v++
	}
	return s
}

func TestMetaConstruction(t *testing.T) {
	if _, err := NewMeta(core.DefaultConfig(), []string{"dpd", "nope"}); err == nil {
		t.Error("NewMeta accepted an unknown expert")
	}
	if _, err := NewMeta(core.DefaultConfig(), []string{"dpd", "dpd"}); err == nil {
		t.Error("NewMeta accepted a duplicate expert")
	}
	if _, err := NewMeta(core.DefaultConfig(), []string{"meta"}); err == nil {
		t.Error("NewMeta accepted a nested meta")
	}
	m, err := NewMeta(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, n := range Names() {
		if n != MetaName {
			want++
		}
	}
	if len(m.names) != want {
		t.Fatalf("default meta wraps %v, want every registered strategy but itself", m.names)
	}
	sub, err := NewMeta(core.DefaultConfig(), []string{"lastvalue", "markov1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub.names, []string{"lastvalue", "markov1"}) {
		t.Fatalf("subset meta wraps %v", sub.names)
	}
}

// TestMetaWindowedHitRateOracle checks the rolling scorer against an
// independent replay: a single-expert meta over lastvalue must report
// exactly the windowed per-horizon hit rates a from-scratch oracle
// computes from the stream (lastvalue's +k forecast for target τ is
// x[τ-k], abstaining when τ-k < 0).
func TestMetaWindowedHitRateOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := make([]int64, 0, 151)
	for i := 0; i < 151; i++ {
		stream = append(stream, int64(rng.Intn(4)))
	}
	for _, n := range []int{1, 5, 37, 63, 64, 65, 100, 151} { // around and across the window boundary
		m, err := NewMeta(core.DefaultConfig(), []string{"lastvalue"})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range stream[:n] {
			m.Observe(x)
		}
		info := m.RouteInfo()
		if len(info.Experts) != 1 || info.Experts[0].Name != "lastvalue" {
			t.Fatalf("RouteInfo experts = %+v", info.Experts)
		}
		got := info.Experts[0]
		wantHits, wantScored := 0, 0
		for k := 1; k <= MetaHorizons; k++ {
			// Scored targets for +k after n observations: τ = k-1 .. n-1,
			// windowed to the last MetaWindow of them.
			lo := k - 1
			if n-MetaWindow > lo {
				lo = n - MetaWindow
			}
			kh, ks := 0, 0
			for tau := lo; tau < n; tau++ {
				ks++
				if tau-k >= 0 && stream[tau-k] == stream[tau] {
					kh++
				}
			}
			rate := 0.0
			if ks > 0 {
				rate = float64(kh) / float64(ks)
			}
			if got.PerHorizon[k-1] != rate {
				t.Fatalf("n=%d +%d: meta windowed rate %.4f, oracle %.4f (%d/%d)", n, k, got.PerHorizon[k-1], rate, kh, ks)
			}
			wantHits += kh
			wantScored += ks
		}
		if got.Hits != wantHits || got.Scored != wantScored {
			t.Fatalf("n=%d: meta hits/scored = %d/%d, oracle %d/%d", n, got.Hits, got.Scored, wantHits, wantScored)
		}
	}
}

// TestMetaRoutingDeterminism runs two independent metas over the same
// stream and requires identical weights, switches, leaders and snapshot
// bytes at every step — the property that makes serving snapshots
// byte-stable across replicas.
func TestMetaRoutingDeterminism(t *testing.T) {
	a, err := NewMeta(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMeta(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range twoRegimeStream() {
		a.Observe(x)
		b.Observe(x)
		if i%50 != 0 {
			continue
		}
		if a.names[a.leader] != b.names[b.leader] || a.switches != b.switches {
			t.Fatalf("step %d: routes diverged (%s/%d vs %s/%d)", i, a.names[a.leader], a.switches, b.names[b.leader], b.switches)
		}
		if !reflect.DeepEqual(a.RouteInfo(), b.RouteInfo()) {
			t.Fatalf("step %d: RouteInfo diverged", i)
		}
		if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
			t.Fatalf("step %d: snapshots diverged", i)
		}
	}
	if a.switches == 0 {
		t.Fatal("the two-regime stream produced no route switches")
	}
}

// TestMetaSnapshotMidWindowRoundTrip snapshots a meta mid-window (37
// observations: outcome rings partially filled, pending ring mid-phase)
// and requires the restored instance to predict, score and switch
// exactly like the original for hundreds more observations.
func TestMetaSnapshotMidWindowRoundTrip(t *testing.T) {
	stream := twoRegimeStream()
	orig, err := NewMeta(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range stream[:37] {
		orig.Observe(x)
	}
	snap := orig.Snapshot()
	restored, err := Restore(MetaName, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, restored.Snapshot()) {
		t.Fatal("restored meta re-snapshots to different bytes")
	}
	rm := restored.(*Meta)
	for i, x := range stream[37:] {
		for k := 1; k <= MetaHorizons; k++ {
			ov, ook := orig.Predict(k)
			rv, rok := restored.Predict(k)
			if ov != rv || ook != rok {
				t.Fatalf("step %d +%d: original (%d,%v), restored (%d,%v)", 37+i, k, ov, ook, rv, rok)
			}
		}
		orig.Observe(x)
		restored.Observe(x)
		if orig.names[orig.leader] != rm.names[rm.leader] || orig.switches != rm.switches {
			t.Fatalf("step %d: original route %s/%d, restored %s/%d", 37+i, orig.names[orig.leader], orig.switches, rm.names[rm.leader], rm.switches)
		}
	}
	if !bytes.Equal(orig.Snapshot(), restored.Snapshot()) {
		t.Fatal("snapshots diverged after the round trip")
	}
}

// TestMetaRestoreRejectsNestedMeta pins the recursion guard: a payload
// naming meta as its own expert must be rejected, not instantiated.
func TestMetaRestoreRejectsNestedMeta(t *testing.T) {
	var w payloadWriter
	w.uvarint(1)
	w.uvarint(uint64(len(MetaName)))
	w.buf = append(w.buf, MetaName...)
	w.uvarint(0) // empty expert payload
	if _, err := Restore(MetaName, w.buf); err == nil {
		t.Fatal("Restore accepted a meta nested inside meta")
	}
}

// TestMetaConvergesOnTwoRegimeTrace is the adaptivity acceptance test:
// on a stream whose best expert changes mid-way, the meta router must
// strictly beat every single strategy, and the final leader must be the
// second regime's winner.
func TestMetaConvergesOnTwoRegimeTrace(t *testing.T) {
	stream := twoRegimeStream()
	single := map[string]float64{}
	for _, name := range Names() {
		if name == MetaName {
			continue
		}
		s, err := New(name, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		mean, _ := metaScore(s, stream, MetaHorizons)
		single[name] = mean
	}
	m, err := NewMeta(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	metaMean, _ := metaScore(m, stream, MetaHorizons)
	for name, mean := range single {
		if metaMean <= mean {
			t.Errorf("meta mean accuracy %.4f does not beat %s's %.4f", metaMean, name, mean)
		}
	}
	if got := m.names[m.leader]; got != "lastvalue" {
		t.Errorf("final leader = %q, want the second regime's winner %q", got, "lastvalue")
	}
	if m.switches < 1 {
		t.Error("meta never switched experts across the regime change")
	}
}

// TestMetaReporters covers the introspection surfaces: the state string
// names the leader (plus the leader's own state when it has one) and the
// period question routes to the leader.
func TestMetaReporters(t *testing.T) {
	m, err := NewMeta(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var s Strategy = m
	if st := s.(StateReporter).PredictorState(); st == "" {
		t.Error("empty predictor state")
	}
	for i := 0; i < 200; i++ {
		m.Observe(int64(i % 6))
	}
	if m.names[m.leader] == "dpd" {
		if _, ok := s.(PeriodReporter).PredictorPeriod(); !ok {
			t.Error("dpd leader locked on a period-6 stream but meta reports none")
		}
		want := "dpd:locked"
		if st := s.(StateReporter).PredictorState(); st != want {
			t.Errorf("predictor state = %q, want %q", st, want)
		}
	}
	info := m.RouteInfo()
	if info.Leader != m.names[m.leader] || info.Window != MetaWindow {
		t.Errorf("RouteInfo = %+v", info)
	}
	for _, e := range info.Experts {
		if e.Scored == 0 || len(e.PerHorizon) != MetaHorizons {
			t.Errorf("expert %s scorecard empty after 200 observations: %+v", e.Name, e)
		}
	}
}

// TestMetaResetClearsRoute verifies Reset returns the router (and every
// expert) to the untrained state: weights zero, leader back to the first
// expert, switch count cleared.
func TestMetaResetClearsRoute(t *testing.T) {
	m, err := NewMeta(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := m.Snapshot()
	for _, x := range twoRegimeStream() {
		m.Observe(x)
	}
	m.Reset()
	if !bytes.Equal(m.Snapshot(), fresh) {
		t.Fatal("Reset did not restore the initial snapshot bytes")
	}
	if m.switches != 0 || m.names[m.leader] != m.names[0] {
		t.Fatalf("Reset left route %s/%d", m.names[m.leader], m.switches)
	}
}
