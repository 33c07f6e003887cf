package serve

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mpipredict/internal/core"
	"mpipredict/internal/strategy"
	"mpipredict/internal/trace"
)

// testClock is a manually advanced time source.
type testClock struct {
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time { return c.now }

func (c *testClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// feedPeriodic observes a periodic (sender, size) stream long enough for
// both predictors to lock.
func feedPeriodic(r *Registry, tenant, stream string, period, n int) {
	for i := 0; i < n; i++ {
		observe(r, tenant, stream, "", Event{Sender: int64(i % period), Size: int64(100 * (i % period))})
	}
}

// observe feeds events to a session through the registry's one ingest
// method, unsequenced, and returns the session's observed total.
func observe(r *Registry, tenant, stream, strat string, events ...Event) (int64, error) {
	senders := make([]int64, len(events))
	sizes := make([]int64, len(events))
	for i, ev := range events {
		senders[i], sizes[i] = ev.Sender, ev.Size
	}
	total, _, err := r.ObserveBlockSeq(tenant, stream, strat, 0, senders, sizes)
	return total, err
}

func TestRegistryObserveThenForecast(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "t", "s", 6, 4*core.DefaultConfig().WindowSize)

	fc, observed, ok := r.ForecastInto(nil, "t", "s", 5)
	if !ok {
		t.Fatal("forecast for an existing session reported no session")
	}
	if observed != int64(4*core.DefaultConfig().WindowSize) {
		t.Fatalf("observed = %d, want %d", observed, 4*core.DefaultConfig().WindowSize)
	}
	if len(fc) != 5 {
		t.Fatalf("got %d forecasts, want 5", len(fc))
	}
	next := int64(4*core.DefaultConfig().WindowSize) % 6
	for i, f := range fc {
		if !f.OK || !f.SenderOK || !f.SizeOK {
			t.Fatalf("forecast %d abstained after a locking warm-up: %+v", i, f)
		}
		want := (next + int64(i)) % 6
		if f.Sender != want || f.Size != 100*want {
			t.Fatalf("forecast %d = (%d, %d), want (%d, %d)", i, f.Sender, f.Size, want, 100*want)
		}
		if f.Ahead != i+1 {
			t.Fatalf("forecast %d has Ahead=%d", i, f.Ahead)
		}
	}
}

func TestRegistryForecastUnknownSession(t *testing.T) {
	r := NewRegistry(Config{})
	if _, _, ok := r.ForecastInto(nil, "t", "nope", 5); ok {
		t.Fatal("forecast invented a session")
	}
	if r.Len() != 0 {
		t.Fatal("the predict path must not create sessions")
	}
	if got := r.Stats().MissedLookups; got != 1 {
		t.Fatalf("MissedLookups = %d, want 1", got)
	}
}

func TestRegistryMatchesBarePredictor(t *testing.T) {
	// A session must behave exactly like two hand-driven StreamPredictors;
	// the registry adds routing, not semantics.
	r := NewRegistry(Config{})
	sender := core.NewStreamPredictor(core.Config{})
	size := core.NewStreamPredictor(core.Config{})
	stream := []Event{}
	for i := 0; i < 3000; i++ {
		stream = append(stream, Event{Sender: int64(i % 7), Size: int64(i % 3)})
	}
	for _, ev := range stream {
		observe(r, "t", "s", "", ev)
		sender.Observe(ev.Sender)
		size.Observe(ev.Size)
	}
	fc, _, ok := r.ForecastInto(nil, "t", "s", 5)
	if !ok {
		t.Fatal("session missing")
	}
	for k := 1; k <= 5; k++ {
		sv, sok := sender.Predict(k)
		zv, zok := size.Predict(k)
		f := fc[k-1]
		if f.Sender != sv || f.SenderOK != sok || f.Size != zv || f.SizeOK != zok {
			t.Fatalf("horizon %d: registry %+v, bare predictors (%d,%v)/(%d,%v)", k, f, sv, sok, zv, zok)
		}
	}
}

// TestRegistryObserveBatchEquivalentToSingles pins that block length does
// not change what a session learns: 500 one-event blocks and one
// 500-event block leave identical forecasts.
func TestRegistryObserveBatchEquivalentToSingles(t *testing.T) {
	a := NewRegistry(Config{})
	b := NewRegistry(Config{})
	senders := make([]int64, 500)
	sizes := make([]int64, 500)
	for i := range senders {
		senders[i], sizes[i] = int64(i%4), int64(i%9)
	}
	for i := range senders {
		if _, _, err := a.ObserveBlockSeq("t", "s", "", 0, senders[i:i+1], sizes[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	total, _, err := b.ObserveBlockSeq("t", "s", "", 0, senders, sizes)
	if err != nil || total != int64(len(senders)) {
		t.Fatalf("block total = %d err=%v, want %d", total, err, len(senders))
	}
	fa, _, _ := a.ForecastInto(nil, "t", "s", 5)
	fb, _, _ := b.ForecastInto(nil, "t", "s", 5)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("forecast %d differs: singles %+v vs block %+v", i, fa[i], fb[i])
		}
	}
}

// TestRegistryObserveBatchSeqDropsDuplicates pins the idempotency
// contract on the first deliveries of a stream: replaying the same
// sequenced block twice applies it exactly once, and a later unsequenced
// block (seq 0) is never taken for a duplicate.
func TestRegistryObserveBatchSeqDropsDuplicates(t *testing.T) {
	r := NewRegistry(Config{})
	clean := NewRegistry(Config{})
	batch := []Event{{Sender: 1, Size: 10}, {Sender: 2, Size: 20}, {Sender: 3, Size: 30}}
	senders := []int64{1, 2, 3}
	sizes := []int64{10, 20, 30}

	total, dup, err := r.ObserveBlockSeq("t", "s", "", 1, senders, sizes)
	if err != nil || dup || total != 3 {
		t.Fatalf("first delivery: total=%d dup=%v err=%v", total, dup, err)
	}
	// Second delivery of the same block: dropped, total unchanged.
	total, dup, err = r.ObserveBlockSeq("t", "s", "", 1, senders, sizes)
	if err != nil || !dup || total != 3 {
		t.Fatalf("duplicate delivery: total=%d dup=%v err=%v", total, dup, err)
	}
	if _, dup, _ = r.ObserveBlockSeq("t", "s", "", 0, senders[:1], sizes[:1]); dup {
		t.Fatal("unsequenced block (seq 0) was treated as a duplicate")
	}
	observe(clean, "t", "s", "", batch...)
	observe(clean, "t", "s", "", batch[:1]...)
	fa, _, _ := r.ForecastInto(nil, "t", "s", 4)
	fb, _, _ := clean.ForecastInto(nil, "t", "s", 4)
	if !reflect.DeepEqual(fa, fb) {
		t.Fatalf("duplicate-dropped registry diverged from effectively-once delivery:\n got %+v\nwant %+v", fa, fb)
	}
	if got := r.Stats().DupBatches; got != 1 {
		t.Fatalf("DupBatches = %d, want 1", got)
	}
	if info, ok := r.Info("t", "s"); !ok || info.LastSeq != 1 {
		t.Fatalf("Info = %+v ok=%v, want LastSeq 1", info, ok)
	}
}

// TestRegistryObserveBlockSeqDropsDuplicates pins the idempotency
// contract the reliable replay clients depend on: delivering the same
// sequenced block twice applies it once, so a retry of a request whose
// response was lost cannot double-count events.
func TestRegistryObserveBlockSeqDropsDuplicates(t *testing.T) {
	r := NewRegistry(Config{})
	senders := []int64{1, 2, 3, 1}
	sizes := []int64{10, 20, 30, 10}

	total, dup, err := r.ObserveBlockSeq("t", "s", "", 5, senders, sizes)
	if err != nil || dup || total != 4 {
		t.Fatalf("first delivery: total=%d dup=%v err=%v", total, dup, err)
	}
	total, dup, err = r.ObserveBlockSeq("t", "s", "", 5, senders, sizes)
	if err != nil || !dup || total != 4 {
		t.Fatalf("duplicate delivery: total=%d dup=%v err=%v", total, dup, err)
	}
	// Out-of-order old seq: also dropped.
	if _, dup, _ = r.ObserveBlockSeq("t", "s", "", 3, senders, sizes); !dup {
		t.Fatal("stale seq 3 below watermark 5 was applied")
	}
	// Seq zero is unsequenced: applied, never a duplicate.
	if _, dup, _ = r.ObserveBlockSeq("t", "s", "", 0, senders[:1], sizes[:1]); dup {
		t.Fatal("unsequenced block (seq 0) was treated as a duplicate")
	}
	// The next monotonic seq is applied.
	total, dup, err = r.ObserveBlockSeq("t", "s", "", 6, senders[:1], sizes[:1])
	if err != nil || dup || total != 6 {
		t.Fatalf("next seq: total=%d dup=%v err=%v", total, dup, err)
	}
	if got := r.Stats().DupBatches; got != 2 {
		t.Fatalf("DupBatches = %d, want 2", got)
	}
	if info, ok := r.Info("t", "s"); !ok || info.LastSeq != 6 {
		t.Fatalf("Info = %+v ok=%v, want LastSeq 6", info, ok)
	}
	// The dropped deliveries left no trace: the session forecasts like one
	// fed each applied block exactly once.
	clean := NewRegistry(Config{})
	for _, n := range []int{4, 1, 1} {
		if _, _, err := clean.ObserveBlockSeq("t", "s", "", 0, senders[:n], sizes[:n]); err != nil {
			t.Fatal(err)
		}
	}
	fa, _, _ := r.ForecastInto(nil, "t", "s", 4)
	fb, _, _ := clean.ForecastInto(nil, "t", "s", 4)
	if !reflect.DeepEqual(fa, fb) {
		t.Fatalf("duplicate-dropped registry diverged from effectively-once delivery:\n got %+v\nwant %+v", fa, fb)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	// One shard with room for 4 sessions: the 5th creation evicts the
	// least recently used.
	r := NewRegistry(Config{Shards: 1, MaxSessions: 4})
	for i := 0; i < 4; i++ {
		observe(r, "t", fmt.Sprintf("s%d", i), "", Event{Sender: 1, Size: 1})
	}
	// Touch s0 so s1 becomes the LRU.
	observe(r, "t", "s0", "", Event{Sender: 1, Size: 1})
	observe(r, "t", "s4", "", Event{Sender: 1, Size: 1})
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if _, _, ok := r.ForecastInto(nil, "t", "s1", 1); ok {
		t.Fatal("s1 should have been evicted as the LRU session")
	}
	for _, keep := range []string{"s0", "s2", "s3", "s4"} {
		if _, ok := r.Info("t", keep); !ok {
			t.Fatalf("session %s unexpectedly evicted", keep)
		}
	}
	if got := r.Stats().EvictedLRU; got != 1 {
		t.Fatalf("EvictedLRU = %d, want 1", got)
	}
}

func TestRegistryForecastCountsAsActivity(t *testing.T) {
	r := NewRegistry(Config{Shards: 1, MaxSessions: 2})
	observe(r, "t", "a", "", Event{Sender: 1, Size: 1})
	observe(r, "t", "b", "", Event{Sender: 1, Size: 1})
	// Query a: b becomes the LRU and is the one evicted by c.
	if _, _, ok := r.ForecastInto(nil, "t", "a", 1); !ok {
		t.Fatal("session a missing")
	}
	observe(r, "t", "c", "", Event{Sender: 1, Size: 1})
	if _, ok := r.Info("t", "a"); !ok {
		t.Fatal("recently queried session a was evicted")
	}
	if _, ok := r.Info("t", "b"); ok {
		t.Fatal("stale session b survived the capacity eviction")
	}
}

func TestRegistryIdleSweep(t *testing.T) {
	clock := newTestClock()
	r := NewRegistry(Config{IdleTTL: time.Minute, Clock: clock.Now})
	observe(r, "t", "old", "", Event{Sender: 1, Size: 1})
	clock.Advance(45 * time.Second)
	observe(r, "t", "fresh", "", Event{Sender: 1, Size: 1})
	clock.Advance(30 * time.Second) // old is 75s idle, fresh 30s

	if evicted := r.SweepIdle(); evicted != 1 {
		t.Fatalf("SweepIdle evicted %d sessions, want 1", evicted)
	}
	if _, ok := r.Info("t", "old"); ok {
		t.Fatal("idle session survived the sweep")
	}
	if _, ok := r.Info("t", "fresh"); !ok {
		t.Fatal("fresh session was swept")
	}
	if got := r.Stats().EvictedIdle; got != 1 {
		t.Fatalf("EvictedIdle = %d, want 1", got)
	}
}

func TestRegistryIdleSweepDisabled(t *testing.T) {
	clock := newTestClock()
	r := NewRegistry(Config{IdleTTL: -1, Clock: clock.Now})
	observe(r, "t", "s", "", Event{Sender: 1, Size: 1})
	clock.Advance(24 * time.Hour)
	if evicted := r.SweepIdle(); evicted != 0 {
		t.Fatalf("disabled sweep evicted %d sessions", evicted)
	}
}

func TestRegistrySessionsSortedAndComplete(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "b", "s2", 4, 3000)
	feedPeriodic(r, "a", "s1", 4, 3000)
	feedPeriodic(r, "a", "s0", 4, 10)

	infos := r.Sessions()
	if len(infos) != 3 {
		t.Fatalf("got %d sessions, want 3", len(infos))
	}
	wantOrder := []string{"a/s0", "a/s1", "b/s2"}
	for i, info := range infos {
		if got := info.Tenant + "/" + info.Stream; got != wantOrder[i] {
			t.Fatalf("session %d = %s, want %s", i, got, wantOrder[i])
		}
	}
	// The long-fed sessions must report a locked sender predictor with the
	// period visible.
	for _, info := range infos[1:] {
		if info.SenderState != "locked" || info.SenderPeriod != 4 {
			t.Fatalf("session %s/%s: state %s period %d, want locked period 4",
				info.Tenant, info.Stream, info.SenderState, info.SenderPeriod)
		}
	}
	if infos[0].Observed != 10 {
		t.Fatalf("a/s0 observed = %d, want 10", infos[0].Observed)
	}
}

func TestRegistryStatsCounters(t *testing.T) {
	r := NewRegistry(Config{})
	observe(r, "t", "s", "", Event{Sender: 1, Size: 1})
	observe(r, "t", "s", "", []Event{{Sender: 2, Size: 2}, {Sender: 3, Size: 3}}...)
	r.ForecastInto(nil, "t", "s", 5)
	r.ForecastInto(nil, "t", "missing", 5)

	st := r.Stats()
	if st.Sessions != 1 || st.Created != 1 || st.Events != 3 || st.Forecasts != 1 || st.MissedLookups != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestRegistryShardDistribution(t *testing.T) {
	// Many keys must not pile into one shard; with 1024 sessions over 64
	// shards a pathological hash would overflow the per-shard bound and
	// evict, which Len would reveal.
	r := NewRegistry(Config{Shards: 64, MaxSessions: 4096})
	for i := 0; i < 1024; i++ {
		observe(r, "tenant", fmt.Sprintf("stream-%d", i), "", Event{Sender: 1, Size: 1})
	}
	if r.Len() != 1024 {
		t.Fatalf("Len = %d, want 1024 (hash clustering caused evictions)", r.Len())
	}
	if got := r.Stats().EvictedLRU; got != 0 {
		t.Fatalf("EvictedLRU = %d, want 0", got)
	}
}

func TestRegistrySnapshotRestoreRoundTrip(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "bt.4", "r1/logical", 6, 3000)
	feedPeriodic(r, "bt.4", "r1/physical", 6, 2000)
	feedPeriodic(r, "cg.8", "r3/logical", 4, 100)

	snaps := r.SnapshotSessions()
	if len(snaps) != 3 {
		t.Fatalf("got %d session snapshots, want 3", len(snaps))
	}

	fresh := NewRegistry(Config{})
	if err := fresh.RestoreSessions(snaps); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 3 {
		t.Fatalf("restored registry holds %d sessions, want 3", fresh.Len())
	}
	if got := fresh.Stats().Restored; got != 3 {
		t.Fatalf("Restored = %d, want 3", got)
	}

	// Forecasts and continued observation must match the original exactly.
	for _, key := range [][2]string{{"bt.4", "r1/logical"}, {"bt.4", "r1/physical"}, {"cg.8", "r3/logical"}} {
		fa, oa, _ := r.ForecastInto(nil, key[0], key[1], 5)
		fb, ob, ok := fresh.ForecastInto(nil, key[0], key[1], 5)
		if !ok || oa != ob {
			t.Fatalf("session %v: restored observed=%d ok=%v, want observed=%d", key, ob, ok, oa)
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("session %v forecast %d: %+v vs %+v", key, i, fa[i], fb[i])
			}
		}
	}
}

func TestRegistryRestoreRejectsCorruptState(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "t", "s", 6, 3000)
	snaps := r.SnapshotSessions()
	snaps[0].Sender = snaps[0].Sender[:len(snaps[0].Sender)-1] // truncated payload

	fresh := NewRegistry(Config{})
	if err := fresh.RestoreSessions(snaps); err == nil {
		t.Fatal("restore accepted a corrupt predictor state")
	}
	if fresh.Len() != 0 {
		t.Fatal("failed restore left partial sessions behind")
	}
}

// TestRegistryRestoreNormalizesEmptyStrategy pins the defaulting of a
// hand-constructed snapshot's empty strategy: the session must come back
// as dpd (not ""), stay addressable by name, and stay checkpointable.
func TestRegistryRestoreNormalizesEmptyStrategy(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "t", "s", 6, 100)
	snaps := r.SnapshotSessions()
	snaps[0].Strategy = ""

	fresh := NewRegistry(Config{})
	if err := fresh.RestoreSessions(snaps); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Sessions()[0].Strategy; got != strategy.Default {
		t.Fatalf("restored strategy %q, want %q", got, strategy.Default)
	}
	if _, err := observe(fresh, "t", "s", "dpd", Event{Sender: 1, Size: 1}); err != nil {
		t.Fatalf("restored session rejects its own strategy: %v", err)
	}
	if err := WriteSnapshot(&bytes.Buffer{}, fresh.SnapshotSessions()); err != nil {
		t.Fatalf("restored session is not checkpointable: %v", err)
	}
}

func TestRegistryRestoreRejectsUnknownStrategy(t *testing.T) {
	r := NewRegistry(Config{})
	feedPeriodic(r, "t", "s", 6, 100)
	snaps := r.SnapshotSessions()
	snaps[0].Strategy = "no-such-strategy"

	fresh := NewRegistry(Config{})
	if err := fresh.RestoreSessions(snaps); err == nil {
		t.Fatal("restore accepted an unknown strategy name")
	}
	if fresh.Len() != 0 {
		t.Fatal("failed restore left partial sessions behind")
	}
}

// TestRegistrySmallMaxSessionsBoundIsExact pins the shard clamp: an
// explicit bound smaller than the shard count must still be honored
// exactly, not multiplied by min-one-per-shard.
func TestRegistrySmallMaxSessionsBoundIsExact(t *testing.T) {
	r := NewRegistry(Config{MaxSessions: 10}) // default 64 shards would allow 64
	for i := 0; i < 100; i++ {
		observe(r, "t", fmt.Sprintf("s%d", i), "", Event{Sender: 1, Size: 1})
	}
	if got := r.Len(); got > 10 {
		t.Fatalf("registry holds %d sessions, MaxSessions is 10", got)
	}
}

func TestRegistryObserveAsCreatesStrategySessions(t *testing.T) {
	r := NewRegistry(Config{})
	// lastvalue: every horizon predicts the last observation.
	for i := 0; i < 10; i++ {
		if _, err := observe(r, "t", "lv", "lastvalue", Event{Sender: int64(i), Size: int64(2 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	fc, _, ok := r.ForecastInto(nil, "t", "lv", 3)
	if !ok {
		t.Fatal("no lastvalue session")
	}
	for _, f := range fc {
		if !f.OK || f.Sender != 9 || f.Size != 18 {
			t.Fatalf("lastvalue forecast %+v, want sender 9 size 18", f)
		}
	}
	infos := r.Sessions()
	if len(infos) != 1 || infos[0].Strategy != "lastvalue" {
		t.Fatalf("session info %+v, want strategy lastvalue", infos)
	}
	// Non-DPD strategies report no lock state or period.
	if infos[0].SenderState != "n/a" || infos[0].SenderPeriod != 0 {
		t.Fatalf("lastvalue session reports DPD state: %+v", infos[0])
	}
}

func TestRegistryObserveAsStrategyMismatch(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := observe(r, "t", "s", "markov1", Event{Sender: 1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	// Omitting the strategy keeps addressing the session.
	observe(r, "t", "s", "", Event{Sender: 2, Size: 2})
	if _, err := observe(r, "t", "s", "markov1", Event{Sender: 3, Size: 3}); err != nil {
		t.Fatalf("matching strategy rejected: %v", err)
	}
	_, err := observe(r, "t", "s", "dpd", Event{Sender: 4, Size: 4})
	if !errors.Is(err, ErrStrategyMismatch) {
		t.Fatalf("conflicting strategy: got %v, want ErrStrategyMismatch", err)
	}
	if _, err := observe(r, "t", "s", "no-such", Event{Sender: 5, Size: 5}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if got := r.Sessions()[0].Observed; got != 3 {
		t.Fatalf("observed = %d, want 3 (rejected observes must not count)", got)
	}
}

func TestRegistryDefaultStrategyConfig(t *testing.T) {
	r := NewRegistry(Config{Strategy: "markov1"})
	observe(r, "t", "s", "", Event{Sender: 1, Size: 1})
	if got := r.Sessions()[0].Strategy; got != "markov1" {
		t.Fatalf("default-strategy session reports %q, want markov1", got)
	}
}

func TestNewRegistryPanicsOnUnknownStrategy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRegistry accepted an unknown default strategy")
		}
	}()
	NewRegistry(Config{Strategy: "no-such-strategy"})
}

// TestRegistrySessionTimestamps pins the created/last-observe reporting
// the session listing carries.
func TestRegistrySessionTimestamps(t *testing.T) {
	clock := newTestClock()
	r := NewRegistry(Config{Clock: clock.Now})
	created := clock.Now()
	observe(r, "t", "s", "", Event{Sender: 1, Size: 1})
	clock.Advance(90 * time.Second)
	observe(r, "t", "s", "", Event{Sender: 2, Size: 2})
	clock.Advance(30 * time.Second)

	info := r.Sessions()[0]
	if info.CreatedUnix != created.Unix() {
		t.Fatalf("CreatedUnix = %d, want %d", info.CreatedUnix, created.Unix())
	}
	if want := created.Add(90 * time.Second).Unix(); info.LastSeenUnix != want {
		t.Fatalf("LastSeenUnix = %d, want %d", info.LastSeenUnix, want)
	}
	if info.IdleSeconds != 30 {
		t.Fatalf("IdleSeconds = %g, want 30", info.IdleSeconds)
	}
}

// TestRegistryHeterogeneousStrategiesConcurrent serves sessions with
// different strategies in one registry at once and requires each to match
// a directly driven strategy of the same kind — the "single process,
// mixed models" claim of the strategy layer.
func TestRegistryHeterogeneousStrategiesConcurrent(t *testing.T) {
	r := NewRegistry(Config{})
	names := strategy.Names()
	for i := 0; i < 600; i++ {
		for _, name := range names {
			ev := Event{Sender: int64(i % 7), Size: int64(100 * (i % 7))}
			if _, err := observe(r, "mix", name, name, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range names {
		want, err := strategy.New(name, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			want.Observe(int64(i % 7))
		}
		fc, _, ok := r.ForecastInto(nil, "mix", name, 5)
		if !ok {
			t.Fatalf("no session for %s", name)
		}
		for k := 1; k <= 5; k++ {
			wv, wok := want.Predict(k)
			if fc[k-1].Sender != wv || fc[k-1].SenderOK != wok {
				t.Fatalf("%s +%d: served (%d,%v), direct (%d,%v)", name, k,
					fc[k-1].Sender, fc[k-1].SenderOK, wv, wok)
			}
		}
	}
}

// Stats aggregates registry activity since construction.
type Stats struct {
	Sessions      int   // live sessions right now
	Created       int64 // sessions ever created
	Restored      int64 // sessions restored from snapshots
	EvictedLRU    int64 // sessions evicted by per-shard capacity pressure
	EvictedIdle   int64 // sessions evicted by SweepIdle
	Events        int64 // observed events
	Forecasts     int64 // answered forecast queries
	MissedLookups int64 // forecast/info queries for unknown sessions
	DupBatches    int64 // sequenced batches dropped as duplicate deliveries
}

// Stats returns a snapshot of the registry counters.
func (r *Registry) Stats() Stats {
	return Stats{
		Sessions:      r.Len(),
		Created:       r.created.Load(),
		Restored:      r.restored.Load(),
		EvictedLRU:    r.evictedLRU.Load(),
		EvictedIdle:   r.evictedIdle.Load(),
		Events:        r.events.Load(),
		Forecasts:     r.forecasts.Load(),
		MissedLookups: r.missed.Load(),
		DupBatches:    r.dupBatches.Load(),
	}
}

// Info returns the introspection view of one session.
func (r *Registry) Info(tenant, stream string) (SessionInfo, bool) {
	sh := r.shardFor(tenant, stream)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.sessions[sessionKey{tenant, stream}]
	if s == nil {
		r.missed.Add(1)
		return SessionInfo{}, false
	}
	return r.infoLocked(s), true
}

// DefaultTenant is the tenant ReplaySource derives for a replayed trace.
func DefaultTenant(tr *trace.Trace) string {
	return fmt.Sprintf("%s.%d", tr.App, tr.Procs)
}
