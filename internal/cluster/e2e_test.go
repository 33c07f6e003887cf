package cluster

// Cluster acceptance: a 3-node sharded deployment behind the gateway
// must be observationally identical to one daemon holding everything —
// byte-identical converged snapshots after golden-corpus replays,
// hit-for-hit scored accuracy against the offline harness (including
// adaptive meta sessions), identical convergence through a chaos-injected
// gateway↔backend hop, and identical recovered state after losing one
// backend mid-stream and restarting it from a stale checkpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mpipredict/internal/evalx"
	"mpipredict/internal/faultinject"
	"mpipredict/internal/serve"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

func corpusTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	tr, err := trace.Load("../../testdata/corpus/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// singleNodeReplayBytes replays the traces into one fresh daemon and
// returns its canonical snapshot — the reference every cluster test
// compares against.
func singleNodeReplayBytes(t *testing.T, names ...string) []byte {
	t.Helper()
	b := newTestBackend(t, serve.Config{})
	for _, name := range names {
		tr := corpusTrace(t, name)
		if _, err := serve.ReplaySource(context.Background(), b.ts.URL, stream.TraceSource(tr), serve.ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return encodeSnapshot(t, b.registry().SnapshotSessions())
}

func clusterReplay(t *testing.T, c *testCluster, opts serve.ReplayOptions, names ...string) {
	t.Helper()
	for _, name := range names {
		tr := corpusTrace(t, name)
		if _, err := serve.ReplaySource(context.Background(), c.ts.URL, stream.TraceSource(tr), opts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterReplayParityWithSingleNode is the tentpole acceptance: the
// golden corpus replayed through a 3-node cluster's gateway converges to
// byte-identical session state as the same replay into one daemon.
func TestClusterReplayParityWithSingleNode(t *testing.T) {
	corpus := []string{"bt.4.mpts", "cg.4.mpts", "is.4.mpts"}
	want := singleNodeReplayBytes(t, corpus...)

	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	clusterReplay(t, c, serve.ReplayOptions{}, corpus...)

	// The comparison is only meaningful if the keys actually sharded.
	populated := 0
	for _, b := range c.backends {
		if b.registry().Len() > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("corpus landed on %d backends; sharding untested", populated)
	}
	got := c.mergedSnapshotBytes(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster state diverged from single node: %d vs %d snapshot bytes", len(got), len(want))
	}
}

// gwPredict queries /v1/predict on any base URL (gateway or daemon).
func gwPredict(t *testing.T, baseURL, tenant, stream string, k int) ([]serve.Forecast, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/predict?tenant=%s&stream=%s&k=%d", baseURL, tenant, stream, k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(resp.Body)
		t.Fatalf("predict returned %s: %s", resp.Status, buf)
	}
	var pr struct {
		Forecasts []serve.Forecast `json:"forecasts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr.Forecasts, true
}

// observeEvent posts one event, optionally sequenced and with an explicit
// predictor, and fails the test on any non-200.
func observeEvent(t *testing.T, baseURL, tenant, stream, predictor string, seq, sender, size int64) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"tenant":%q,"stream":%q`, tenant, stream)
	if predictor != "" {
		fmt.Fprintf(&sb, `,"predictor":%q`, predictor)
	}
	if seq > 0 {
		fmt.Fprintf(&sb, `,"seq":%d`, seq)
	}
	fmt.Fprintf(&sb, `,"senders":[%d],"sizes":[%d]}`, sender, size)
	resp, buf := postObserve(t, baseURL, sb.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe %s/%s seq %d returned %s: %s", tenant, stream, seq, resp.Status, buf)
	}
}

// scoredRun drives the paper's measurement protocol over HTTP: predict
// k=5 before every observe, scoring hits against the stream's future.
// It returns per-horizon sender and size hit counts.
func scoredRun(t *testing.T, baseURL, tenant, stream, predictor string, senders, sizes []int64) (senderHits, sizeHits [5]int) {
	t.Helper()
	for i := range senders {
		forecasts, found := gwPredict(t, baseURL, tenant, stream, 5)
		for k := 1; k <= 5; k++ {
			idx := i + k - 1
			if idx >= len(senders) || !found {
				continue
			}
			if forecasts[k-1].SenderOK && forecasts[k-1].Sender == senders[idx] {
				senderHits[k-1]++
			}
			if forecasts[k-1].SizeOK && forecasts[k-1].Size == sizes[idx] {
				sizeHits[k-1]++
			}
		}
		observeEvent(t, baseURL, tenant, stream, predictor, 0, senders[i], sizes[i])
	}
	return senderHits, sizeHits
}

// TestClusterScoredAccuracyMatchesOffline drives the scored protocol
// through the gateway and requires hit-for-hit equality with the offline
// harness — HTTP-scored accuracy through a sharded cluster IS the
// paper's accuracy. The meta subtest requires the cluster to match a
// single daemon exactly for adaptive meta sessions too.
func TestClusterScoredAccuracyMatchesOffline(t *testing.T) {
	tr := corpusTrace(t, "bt.4.mpts")
	receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
	if err != nil {
		t.Fatal(err)
	}
	senders := tr.SenderStreamShared(receiver, trace.Physical)
	sizes := tr.SizeStreamShared(receiver, trace.Physical)
	if len(senders) > 400 {
		senders, sizes = senders[:400], sizes[:400]
	}
	tenant := fmt.Sprintf("%s.%d", tr.App, tr.Procs)
	stream := serve.StreamName(receiver, trace.Physical)

	t.Run("dpd-vs-evalx", func(t *testing.T) {
		offSender := evalx.EvaluateStream(senders, nil, 5)
		offSize := evalx.EvaluateStream(sizes, nil, 5)
		c := newTestCluster(t, 3, serve.Config{}, fastOptions())
		senderHits, sizeHits := scoredRun(t, c.ts.URL, tenant, stream, "", senders, sizes)
		for k := 0; k < 5; k++ {
			if senderHits[k] != offSender.Hits[k] {
				t.Errorf("sender horizon +%d: cluster scored %d hits, offline evalx %d", k+1, senderHits[k], offSender.Hits[k])
			}
			if sizeHits[k] != offSize.Hits[k] {
				t.Errorf("size horizon +%d: cluster scored %d hits, offline evalx %d", k+1, sizeHits[k], offSize.Hits[k])
			}
		}
	})

	t.Run("meta-vs-single-node", func(t *testing.T) {
		single := newTestBackend(t, serve.Config{})
		wantSender, wantSize := scoredRun(t, single.ts.URL, tenant, stream, "meta", senders, sizes)
		c := newTestCluster(t, 3, serve.Config{}, fastOptions())
		gotSender, gotSize := scoredRun(t, c.ts.URL, tenant, stream, "meta", senders, sizes)
		if gotSender != wantSender || gotSize != wantSize {
			t.Fatalf("meta session diverged through the cluster: sender %v vs %v, size %v vs %v",
				gotSender, wantSender, gotSize, wantSize)
		}
		// Final forecasts must agree exactly, not just the hit counts.
		want, _ := gwPredict(t, single.ts.URL, tenant, stream, 5)
		got, _ := gwPredict(t, c.ts.URL, tenant, stream, 5)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("meta forecast %d: cluster %+v, single node %+v", i, got[i], want[i])
			}
		}
	})
}

// TestClusterChaosOnGatewayBackendHop injects the full fault mix into
// the gateway's backend client. Both retry layers are live — the
// gateway's forward absorbs most faults; when its budget runs out, the
// 502 bubbles to the replay client which re-delivers the sequenced batch
// — and the converged cluster state must still be byte-identical to a
// clean cluster replay.
func TestClusterChaosOnGatewayBackendHop(t *testing.T) {
	replayOpts := serve.ReplayOptions{BatchSize: 1, MaxRetries: 30, RetryBase: time.Millisecond}

	clean := newTestCluster(t, 3, serve.Config{}, fastOptions())
	clusterReplay(t, clean, replayOpts, "bt.4.mpts", "cg.4.mpts")
	want := clean.mergedSnapshotBytes(t)

	chaos := faultinject.NewTransport(faultinject.Config{
		Seed:             1803,
		ErrorProb:        0.08,
		ResetProb:        0.08,
		DropResponseProb: 0.08,
		TruncateProb:     0.08,
	}, nil)
	opts := fastOptions()
	opts.Client = &http.Client{Transport: chaos}
	opts.MaxRetries = 30
	c := newTestCluster(t, 3, serve.Config{}, opts)
	clusterReplay(t, c, replayOpts, "bt.4.mpts", "cg.4.mpts")

	got := c.mergedSnapshotBytes(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos-hop replay diverged from clean cluster replay: %d vs %d snapshot bytes", len(got), len(want))
	}
	tally := chaos.Injected()
	if tally == (faultinject.Tally{}) {
		t.Fatal("fault injector fired zero faults; hop untested")
	}
	t.Logf("gateway→backend faults injected: %+v", tally)
}

// TestClusterMigrationFromSingleNodeSnapshot proves the shard-map-change
// protocol: a single daemon's .mps checkpoint partitioned and restored
// across the cluster yields byte-identical merged state, every session
// on its owner, and identical forecasts through the gateway.
func TestClusterMigrationFromSingleNodeSnapshot(t *testing.T) {
	single := newTestBackend(t, serve.Config{})
	for _, name := range []string{"bt.4.mpts", "cg.4.mpts"} {
		tr := corpusTrace(t, name)
		if _, err := serve.ReplaySource(context.Background(), single.ts.URL, stream.TraceSource(tr), serve.ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	sessions := single.registry().SnapshotSessions()
	want := encodeSnapshot(t, sessions)

	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	restored, err := c.gw.RestoreToCluster(context.Background(), sessions)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range restored {
		total += n
	}
	if total != len(sessions) {
		t.Fatalf("restored %d of %d sessions: %v", total, len(sessions), restored)
	}
	if got := c.mergedSnapshotBytes(t); !bytes.Equal(got, want) {
		t.Fatal("migrated cluster state is not byte-identical to the source snapshot")
	}
	for url, b := range c.backends {
		for _, s := range b.registry().Sessions() {
			if owner := c.shards.Owner(s.Tenant, s.Stream); owner != url {
				t.Errorf("migrated session %s/%s on %s, owner is %s", s.Tenant, s.Stream, url, owner)
			}
		}
	}
	// Forecasts through the gateway match the source daemon session for
	// session — migration moved learned state, not approximations of it.
	for _, s := range sessions {
		want, wok := gwPredict(t, single.ts.URL, s.Tenant, s.Stream, 5)
		got, gok := gwPredict(t, c.ts.URL, s.Tenant, s.Stream, 5)
		if !wok || !gok {
			t.Fatalf("session %s/%s lost: single=%v cluster=%v", s.Tenant, s.Stream, wok, gok)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("session %s/%s forecast %d: cluster %+v, source %+v", s.Tenant, s.Stream, i, got[i], want[i])
			}
		}
	}
}

// TestClusterKillOneBackendRecovery is the failure-path acceptance: one
// backend dies mid-stream with a stale checkpoint, the gateway degrades
// but keeps serving the surviving shards, and after a restart from the
// stale checkpoint plus an idempotent re-send of the full sequenced
// stream, the cluster's merged state is byte-identical to a single
// daemon that never failed.
func TestClusterKillOneBackendRecovery(t *testing.T) {
	tr := corpusTrace(t, "bt.4.mpts")
	receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
	if err != nil {
		t.Fatal(err)
	}
	senders := tr.SenderStreamShared(receiver, trace.Physical)
	sizes := tr.SizeStreamShared(receiver, trace.Physical)
	const events = 32
	if len(senders) < events {
		t.Fatalf("bt.4 physical stream too short: %d", len(senders))
	}
	senders, sizes = senders[:events], sizes[:events]
	// The same stream under 8 tenants spreads keys over all 3 backends.
	var keys [][2]string
	for i := 0; i < 8; i++ {
		keys = append(keys, [2]string{fmt.Sprintf("app.%d", i), "r0/physical"})
	}

	// Reference: one registry fed the full sequenced stream, no failures.
	ref := serve.NewRegistry(serve.Config{})
	for _, k := range keys {
		for i := range senders {
			if _, _, err := ref.ObserveBlockSeq(k[0], k[1], "", int64(i+1), senders[i:i+1], sizes[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := encodeSnapshot(t, ref.SnapshotSessions())

	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	feed := func(from, to int) {
		for _, k := range keys {
			for i := from; i < to; i++ {
				observeEvent(t, c.ts.URL, k[0], k[1], "", int64(i+1), senders[i], sizes[i])
			}
		}
	}
	// Phase 1: first half, then checkpoint the victim — the checkpoint
	// goes stale the moment phase 2 starts.
	feed(0, events/2)
	var victimURL string
	var victim *testBackend
	for url, b := range c.backends {
		if b.registry().Len() > 0 {
			victimURL, victim = url, b
			break
		}
	}
	if victim == nil {
		t.Fatal("no backend owns any key")
	}
	checkpoint := encodeSnapshot(t, victim.registry().SnapshotSessions())

	// Phase 2: second half lands everywhere, then the victim dies with
	// all of phase 2 unrecorded in its checkpoint.
	feed(events/2, events)
	victim.dead.Store(true)

	// Degraded but usable: victim-owned keys fail with 502 after retries,
	// the rest keep observing; the listing names the dead backend.
	var victimKey, liveKey [2]string
	for _, k := range keys {
		if c.shards.Owner(k[0], k[1]) == victimURL {
			victimKey = k
		} else {
			liveKey = k
		}
	}
	if victimKey[0] == "" || liveKey[0] == "" {
		t.Fatalf("keys did not spread across backends")
	}
	resp, _ := postObserve(t, c.ts.URL, fmt.Sprintf(`{"tenant":%q,"stream":%q,"senders":[1],"sizes":[1]}`, victimKey[0], victimKey[1]))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("observe to dead shard returned %d, want 502", resp.StatusCode)
	}
	resp, _ = postObserve(t, c.ts.URL, fmt.Sprintf(`{"tenant":%q,"stream":%q,"seq":%d,"senders":[%d],"sizes":[%d]}`,
		liveKey[0], liveKey[1], events, senders[events-1], sizes[events-1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe to live shard during outage returned %d", resp.StatusCode)
	}
	sresp, err := http.Get(c.ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var listing ClusterSessionsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if !listing.Degraded || listing.Errors[victimURL] == "" {
		t.Fatalf("outage listing not degraded or victim unnamed: %+v", listing.Errors)
	}

	// Recovery: restart from the stale checkpoint, then re-send the full
	// sequenced stream. Seqs at or below each session's checkpointed
	// watermark ack as duplicates; the victim's lost second half
	// re-applies; nothing double-counts anywhere.
	victim.restart(t, serve.Config{}, checkpoint)
	feed(0, events)

	got := c.mergedSnapshotBytes(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered cluster diverged from never-failed single node: %d vs %d snapshot bytes", len(got), len(want))
	}
	// Forecast parity session by session, through the gateway.
	buf := make([]serve.Forecast, 0, 5)
	for _, k := range keys {
		wantF, observed, ok := ref.ForecastInto(buf[:0], k[0], k[1], 5)
		if !ok || observed != events {
			t.Fatalf("reference session %v: ok=%v observed=%d", k, ok, observed)
		}
		gotF, found := gwPredict(t, c.ts.URL, k[0], k[1], 5)
		if !found {
			t.Fatalf("session %v lost after recovery", k)
		}
		for i := range wantF {
			if wantF[i] != gotF[i] {
				t.Fatalf("session %v forecast %d after recovery: %+v, want %+v", k, i, gotF[i], wantF[i])
			}
		}
	}
}
