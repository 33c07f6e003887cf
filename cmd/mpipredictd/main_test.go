package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mpipredict/internal/evalx"
	"mpipredict/internal/serve"
	"mpipredict/internal/strategy"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracecache"
	"mpipredict/internal/workloads"
)

const corpusBT4 = "../../testdata/corpus/bt.4.mpts"

// syncBuffer guards concurrent writes from the daemon goroutine against
// reads from the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one in-process mpipredictd instance under test.
type daemon struct {
	addr string
	sigs chan os.Signal
	done chan error
	out  *syncBuffer
	errb *syncBuffer
}

// startDaemon launches run() with -addr 127.0.0.1:0 plus the given args
// and waits until it listens.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{
		sigs: make(chan os.Signal, 1),
		done: make(chan error, 1),
		out:  &syncBuffer{},
		errb: &syncBuffer{},
	}
	addrCh := make(chan string, 1)
	onListen = func(a string) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })
	go func() {
		d.done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), d.out, d.errb, d.sigs)
	}()
	select {
	case d.addr = <-addrCh:
	case err := <-d.done:
		t.Fatalf("daemon exited before listening: %v\nstderr: %s", err, d.errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start listening within 10s")
	}
	return d
}

func (d *daemon) url() string { return "http://" + d.addr }

// stop sends SIGTERM and waits for a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.sigs <- syscall.SIGTERM
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v\nstderr: %s", err, d.errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s")
	}
}

// predictResult mirrors the /v1/predict response body.
type predictResult struct {
	Observed  int64            `json:"observed"`
	Forecasts []serve.Forecast `json:"forecasts"`
}

// predict queries the daemon; found is false on 404 (no session yet).
func predict(t *testing.T, baseURL, tenant, stream string, k int) (predictResult, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/predict?tenant=%s&stream=%s&k=%d", baseURL, tenant, stream, k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return predictResult{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict returned %s", resp.Status)
	}
	var pr predictResult
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr, true
}

func observeOne(t *testing.T, baseURL, tenant, stream string, sender, size int64) {
	t.Helper()
	body := fmt.Sprintf(`{"tenant":"%s","stream":"%s","events":[{"sender":%d,"size":%d}]}`, tenant, stream, sender, size)
	postObserve(t, baseURL, body)
}

// observeSeq is observeOne with a batch sequence number, for parity
// with sequenced wire deliveries.
func observeSeq(t *testing.T, baseURL, tenant, stream string, seq, sender, size int64) {
	t.Helper()
	body := fmt.Sprintf(`{"tenant":"%s","stream":"%s","seq":%d,"senders":[%d],"sizes":[%d]}`, tenant, stream, seq, sender, size)
	postObserve(t, baseURL, body)
}

func postObserve(t *testing.T, baseURL, body string) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/observe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe returned %s", resp.Status)
	}
}

// TestDaemonAccuracyMatchesOfflineAndWarmRestarts is the subsystem's
// end-to-end acceptance: feed the bt.4 corpus trace through the live
// daemon one event at a time, scoring /v1/predict with the offline
// measurement protocol, and require hit-for-hit equality with
// evalx.EvaluateStream; then SIGTERM, warm-restart from the snapshot, and
// require the checkpoint files of both shutdowns to be byte-identical.
func TestDaemonAccuracyMatchesOfflineAndWarmRestarts(t *testing.T) {
	tr, err := trace.Load(corpusBT4)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
	if err != nil {
		t.Fatal(err)
	}
	senders := tr.SenderStreamShared(receiver, trace.Physical)
	sizes := tr.SizeStreamShared(receiver, trace.Physical)
	offlineSender := evalx.EvaluateStream(senders, nil, 5)
	offlineSize := evalx.EvaluateStream(sizes, nil, 5)

	snap := filepath.Join(t.TempDir(), "state.mps")
	d := startDaemon(t, "-snapshot", snap)

	tenant := fmt.Sprintf("%s.%d", tr.App, tr.Procs)
	stream := serve.StreamName(receiver, trace.Physical)
	senderHits := make([]int, 5)
	sizeHits := make([]int, 5)
	for i := range senders {
		pr, found := predict(t, d.url(), tenant, stream, 5)
		for k := 1; k <= 5; k++ {
			idx := i + k - 1
			if idx >= len(senders) {
				continue
			}
			if found && pr.Forecasts[k-1].SenderOK && pr.Forecasts[k-1].Sender == senders[idx] {
				senderHits[k-1]++
			}
			if found && pr.Forecasts[k-1].SizeOK && pr.Forecasts[k-1].Size == sizes[idx] {
				sizeHits[k-1]++
			}
		}
		observeOne(t, d.url(), tenant, stream, senders[i], sizes[i])
	}
	for k := 0; k < 5; k++ {
		if senderHits[k] != offlineSender.Hits[k] {
			t.Errorf("sender horizon +%d: daemon scored %d hits, offline evalx %d", k+1, senderHits[k], offlineSender.Hits[k])
		}
		if sizeHits[k] != offlineSize.Hits[k] {
			t.Errorf("size horizon +%d: daemon scored %d hits, offline evalx %d", k+1, sizeHits[k], offlineSize.Hits[k])
		}
	}

	// Remember the forecasts the session gives right before shutdown.
	before, found := predict(t, d.url(), tenant, stream, 5)
	if !found || before.Observed != int64(len(senders)) {
		t.Fatalf("pre-shutdown session state wrong: found=%v observed=%d", found, before.Observed)
	}

	d.stop(t)
	first, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("shutdown did not write the snapshot: %v", err)
	}

	// Warm restart: the session must come back with identical state.
	d2 := startDaemon(t, "-snapshot", snap)
	if !strings.Contains(d2.out.String(), "warm start, restored 1 sessions") {
		t.Fatalf("expected a warm start, got output:\n%s", d2.out.String())
	}
	after, found := predict(t, d2.url(), tenant, stream, 5)
	if !found {
		t.Fatal("session lost across restart")
	}
	if after.Observed != before.Observed {
		t.Fatalf("observed count across restart: %d, want %d", after.Observed, before.Observed)
	}
	for i := range before.Forecasts {
		if before.Forecasts[i] != after.Forecasts[i] {
			t.Fatalf("forecast %d changed across restart: %+v vs %+v", i, before.Forecasts[i], after.Forecasts[i])
		}
	}
	d2.stop(t)
	second, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("restart round trip is not byte-for-byte: the two checkpoints differ")
	}
}

// TestDaemonSelfReplay starts the daemon with -replay and checks the
// corpus trace lands in live sessions.
func TestDaemonSelfReplay(t *testing.T) {
	d := startDaemon(t, "-replay", corpusBT4)
	defer d.stop(t)

	// The self-replay runs after the listener is up; wait for its report.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(d.out.String(), "replay tenant=bt.4") {
		if time.Now().After(deadline) {
			t.Fatalf("missing replay report in output:\n%s", d.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(d.url() + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Sessions []serve.SessionInfo `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != 2 { // logical + physical stream of the traced receiver
		t.Fatalf("got %d sessions after self-replay, want 2", len(listing.Sessions))
	}
	hz, err := http.Get(d.url() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %s", hz.Status)
	}
}

// TestDaemonClientModeReplay drives one daemon from a second run() acting
// as the replay client.
func TestDaemonClientModeReplay(t *testing.T) {
	d := startDaemon(t)
	defer d.stop(t)

	var out, errb bytes.Buffer
	if err := run([]string{"-replay", corpusBT4, "-target", d.url()}, &out, &errb, nil); err != nil {
		t.Fatalf("client replay: %v\nstderr: %s", err, errb.String())
	}
	if !strings.Contains(out.String(), "replay tenant=bt.4") {
		t.Fatalf("client did not report stats:\n%s", out.String())
	}
	pr, found := predict(t, d.url(), "bt.4", "r3/physical", 3)
	if !found || len(pr.Forecasts) != 3 {
		t.Fatalf("target daemon has no replayed session (found=%v)", found)
	}
}

func TestDaemonRejectsCorruptSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.mps")
	if err := os.WriteFile(snap, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-addr", "127.0.0.1:0", "-snapshot", snap}, &bytes.Buffer{}, &bytes.Buffer{}, nil)
	if err == nil || !errors.Is(err, serve.ErrCorruptSnapshot) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorruptSnapshot", err)
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown flag", []string{"-frobnicate"}, "flag provided but not defined"},
		{"positional args rejected", []string{"serve"}, "unexpected arguments"},
		{"target without replay", []string{"-target", "http://localhost:1"}, "-target requires -replay"},
		{"target rejects addr", []string{"-replay", corpusBT4, "-target", "http://x", "-addr", "127.0.0.1:1"}, "ignored with -target"},
		{"target rejects snapshot", []string{"-replay", corpusBT4, "-target", "http://x", "-snapshot", "s.mps"}, "ignored with -target"},
		{"negative snapshot interval", []string{"-snapshot-interval", "-1s"}, "must not be negative"},
		{"bad sweep interval", []string{"-sweep-interval", "0s"}, "must be positive"},
		{"missing replay file", []string{"-replay", "/no/such/file.mpts"}, "no such file"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args, &bytes.Buffer{}, &bytes.Buffer{}, nil)
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tt.wantErr)
			}
		})
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	err := run([]string{"-h"}, &bytes.Buffer{}, &bytes.Buffer{}, nil)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestDaemonIntervalCheckpoint verifies the periodic checkpoint fires
// without a shutdown.
func TestDaemonIntervalCheckpoint(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.mps")
	d := startDaemon(t, "-snapshot", snap, "-snapshot-interval", "50ms")
	defer d.stop(t)
	observeOne(t, d.url(), "t", "s", 1, 2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sessions, err := serve.LoadSnapshotFile(snap); err == nil && len(sessions) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval checkpoint never produced a loadable snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplayBatchRequiresReplay(t *testing.T) {
	err := run([]string{"-replay-batch", "32"}, &bytes.Buffer{}, &bytes.Buffer{}, nil)
	if err == nil || !strings.Contains(err.Error(), "no effect without -replay") {
		t.Fatalf("error = %v, want the -replay-batch conflict", err)
	}
}

// observeWithPredictor posts one event naming a strategy for the session.
// It returns the error instead of failing the test so concurrent callers
// (worker goroutines must not call t.Fatal) can funnel failures back to
// the test goroutine.
func observeWithPredictor(baseURL, tenant, stream, pred string, sender, size int64) error {
	body := fmt.Sprintf(`{"tenant":"%s","stream":"%s","predictor":"%s","events":[{"sender":%d,"size":%d}]}`,
		tenant, stream, pred, sender, size)
	resp, err := http.Post(baseURL+"/v1/observe", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("observe with predictor %s returned %s", pred, resp.Status)
	}
	return nil
}

// sessionsOf fetches the daemon's session listing.
func sessionsOf(t *testing.T, baseURL string) []serve.SessionInfo {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Sessions []serve.SessionInfo `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	return listing.Sessions
}

// TestDaemonHeterogeneousStrategiesWarmRestart is the strategy layer's
// end-to-end acceptance: one daemon serves sessions with different
// strategies concurrently, checkpoints them into one file, warm-restarts,
// and the next checkpoint is byte-identical.
func TestDaemonHeterogeneousStrategiesWarmRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.mps")
	d := startDaemon(t, "-snapshot", snap)
	var wg sync.WaitGroup
	errs := make(chan error, len(strategy.Names()))
	for _, pred := range strategy.Names() {
		wg.Add(1)
		go func(pred string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := observeWithPredictor(d.url(), "mix", pred, pred, int64(i%5), int64(10*(i%5))); err != nil {
					errs <- err
					return
				}
			}
		}(pred)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sessions := sessionsOf(t, d.url())
	if len(sessions) != len(strategy.Names()) {
		t.Fatalf("daemon holds %d sessions, want %d", len(sessions), len(strategy.Names()))
	}
	for _, s := range sessions {
		if s.Stream != s.Strategy {
			t.Fatalf("session %q runs strategy %q", s.Stream, s.Strategy)
		}
	}
	d.stop(t)
	first, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	d = startDaemon(t, "-snapshot", snap)
	restored := sessionsOf(t, d.url())
	if len(restored) != len(sessions) {
		t.Fatalf("restart restored %d sessions, want %d", len(restored), len(sessions))
	}
	for _, s := range restored {
		if s.Stream != s.Strategy {
			t.Fatalf("restored session %q runs strategy %q", s.Stream, s.Strategy)
		}
		// Every restored session must still answer forecasts.
		if _, ok := predict(t, d.url(), "mix", s.Stream, 3); !ok {
			t.Fatalf("restored session %q lost its state", s.Stream)
		}
	}
	d.stop(t)
	second, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("warm restart checkpoint differs from the original byte stream")
	}
}

// TestDaemonPredictorFlagSetsDefaultStrategy pins -predictor: sessions
// created without an explicit strategy inherit it.
func TestDaemonPredictorFlagSetsDefaultStrategy(t *testing.T) {
	d := startDaemon(t, "-predictor", "lastvalue")
	defer d.stop(t)
	observeOne(t, d.url(), "t", "s", 7, 70)
	sessions := sessionsOf(t, d.url())
	if len(sessions) != 1 || sessions[0].Strategy != "lastvalue" {
		t.Fatalf("sessions = %+v, want one lastvalue session", sessions)
	}
	pr, ok := predict(t, d.url(), "t", "s", 3)
	if !ok {
		t.Fatal("session missing")
	}
	for _, f := range pr.Forecasts {
		if !f.OK || f.Sender != 7 || f.Size != 70 {
			t.Fatalf("lastvalue forecast %+v", f)
		}
	}
}

// TestDaemonDebugVarsIncludesTraceCache pins the /debug/vars wiring of the
// shared trace cache counters (disk tier included).
func TestDaemonDebugVarsIncludesTraceCache(t *testing.T) {
	d := startDaemon(t)
	defer d.stop(t)
	resp, err := http.Get(d.url() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		TraceCache *tracecache.Stats `json:"tracecache"`
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatal(err)
	}
	if vars.TraceCache == nil {
		t.Fatal("/debug/vars misses the tracecache group")
	}
	if vars.TraceCache.DiskErrors != 0 {
		t.Fatalf("unexpected disk errors: %+v", vars.TraceCache)
	}
	// The store-tier counters must be published by name, so operators can
	// scrape them without depending on Go struct defaults.
	var raw struct {
		TraceCache map[string]json.RawMessage `json:"tracecache"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"StoreBlocksRead", "StorePartitionsPruned", "StoreCorruptBlocks"} {
		if _, ok := raw.TraceCache[field]; !ok {
			t.Errorf("/debug/vars tracecache group misses the %s store counter", field)
		}
	}
}

// TestDaemonDebugVarsExposeResilienceCounters pins the operator-facing
// failure metrics: an idle daemon reports them all as zero, which is the
// signal an alert on any of them is meaningful.
func TestDaemonDebugVarsExposeResilienceCounters(t *testing.T) {
	d := startDaemon(t, "-snapshot", filepath.Join(t.TempDir(), "s.mps"))
	defer d.stop(t)
	resp, err := http.Get(d.url() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"duplicate_batches", "recovered_panics", "rejected_overload",
		"checkpoint_failures", "checkpoint_retries",
	} {
		raw, ok := vars[name]
		if !ok {
			t.Fatalf("/debug/vars misses %q (have %d vars)", name, len(vars))
		}
		if string(raw) != "0" {
			t.Fatalf("%s = %s on an idle daemon, want 0", name, raw)
		}
	}
}

// observeSeqOne posts one sequenced event: the building block of the
// crash-recovery protocol, where the client re-sends everything it is
// unsure about and the seq makes re-delivery harmless.
func observeSeqOne(t *testing.T, baseURL, tenant, stream string, seq, sender, size int64) {
	t.Helper()
	body := fmt.Sprintf(`{"tenant":"%s","stream":"%s","seq":%d,"events":[{"sender":%d,"size":%d}]}`, tenant, stream, seq, sender, size)
	resp, err := http.Post(baseURL+"/v1/observe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sequenced observe returned %s", resp.Status)
	}
}

// TestDaemonChaosSelfReplayConverges drives the hidden -chaos flag end to
// end: a daemon injecting faults into every request it serves must still
// ingest its self-replayed corpus trace completely — the reliable replay
// client retries through the chaos — and checkpoint a state byte-identical
// to a fault-free daemon's.
func TestDaemonChaosSelfReplayConverges(t *testing.T) {
	dir := t.TempDir()
	cleanSnap := filepath.Join(dir, "clean.mps")
	chaosSnap := filepath.Join(dir, "chaos.mps")

	// Batch size 1 turns the 66-event corpus into enough requests for the
	// fault probabilities to bite.
	clean := startDaemon(t, "-replay", corpusBT4, "-replay-batch", "1", "-snapshot", cleanSnap)
	waitForReplay(t, clean)
	clean.stop(t)

	chaos := startDaemon(t, "-replay", corpusBT4, "-replay-batch", "1", "-snapshot", chaosSnap,
		"-chaos", "err=0.08,reset=0.08,drop=0.08,truncate=0.08,seed=1803")
	waitForReplay(t, chaos)
	if !strings.Contains(chaos.errb.String(), "CHAOS MODE") {
		t.Fatalf("chaos daemon did not announce itself:\nstderr: %s", chaos.errb.String())
	}
	if !strings.Contains(chaos.out.String(), "retries=") || strings.Contains(chaos.out.String(), "retries=0 ") {
		t.Fatalf("chaos replay reported no retries:\n%s", chaos.out.String())
	}
	chaos.stop(t)

	a, err := os.ReadFile(cleanSnap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(chaosSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("chaos checkpoint (%d bytes) differs from clean checkpoint (%d bytes)", len(b), len(a))
	}
}

// waitForReplay blocks until the daemon reports its self-replay stats.
func waitForReplay(t *testing.T, d *daemon) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(d.out.String(), "replay tenant=") {
		if time.Now().After(deadline) {
			t.Fatalf("self-replay never reported:\nstdout: %s\nstderr: %s", d.out.String(), d.errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonCrashRecoveryResumesAccurately is the crash-recovery
// acceptance: feed half the corpus stream (sequenced), steal an interval
// checkpoint mid-stream — the state a crash would leave behind, missing
// everything after it — restart a fresh daemon from that stale
// checkpoint, re-send the entire first half (the duplicates are dropped,
// the lost tail re-applies), and score the second half live. Total
// accuracy must match offline evalx.EvaluateStream hit for hit, proving
// the crash lost nothing and the re-delivery double-counted nothing.
func TestDaemonCrashRecoveryResumesAccurately(t *testing.T) {
	tr, err := trace.Load(corpusBT4)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
	if err != nil {
		t.Fatal(err)
	}
	senders := tr.SenderStreamShared(receiver, trace.Physical)
	sizes := tr.SizeStreamShared(receiver, trace.Physical)
	offline := evalx.EvaluateStream(senders, nil, 5)
	tenant := fmt.Sprintf("%s.%d", tr.App, tr.Procs)
	stream := serve.StreamName(receiver, trace.Physical)
	half := len(senders) / 2

	dir := t.TempDir()
	liveSnap := filepath.Join(dir, "live.mps")
	crashSnap := filepath.Join(dir, "crash.mps")

	score := func(d *daemon, hits []int, i int) {
		t.Helper()
		pr, found := predict(t, d.url(), tenant, stream, 5)
		for k := 1; k <= 5; k++ {
			idx := i + k - 1
			if idx >= len(senders) {
				continue
			}
			if found && pr.Forecasts[k-1].SenderOK && pr.Forecasts[k-1].Sender == senders[idx] {
				hits[k-1]++
			}
		}
	}

	// Phase 1: live daemon with aggressive interval checkpoints; score and
	// feed the first half, sequenced.
	d := startDaemon(t, "-snapshot", liveSnap, "-snapshot-interval", "10ms")
	hits := make([]int, 5)
	for i := 0; i < half; i++ {
		score(d, hits, i)
		observeSeqOne(t, d.url(), tenant, stream, int64(i+1), senders[i], sizes[i])
	}
	// Steal a mid-stream interval checkpoint: whatever prefix it holds is
	// the state a crash right now would leave behind. (SaveSnapshotFile
	// replaces atomically, so the copy is always a consistent file.)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(liveSnap); err == nil {
			if sessions, err := serve.LoadSnapshotFile(liveSnap); err == nil && len(sessions) == 1 {
				if err := os.WriteFile(crashSnap, data, 0o644); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no usable interval checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The "crash": daemon A's subsequent state — including its clean final
	// checkpoint — is discarded; daemon B starts from the stolen copy.
	d.stop(t)

	d2 := startDaemon(t, "-snapshot", crashSnap)
	restored, found := predict(t, d2.url(), tenant, stream, 1)
	if !found {
		t.Fatal("session did not survive the crash-restart")
	}
	if restored.Observed > int64(half) {
		t.Fatalf("restored checkpoint claims %d events, more than the %d ever sent", restored.Observed, half)
	}
	// Recovery: re-send the whole first half with the original sequence
	// numbers. Batches the checkpoint remembers are dropped as duplicates;
	// the tail it lost re-applies exactly once.
	for i := 0; i < half; i++ {
		observeSeqOne(t, d2.url(), tenant, stream, int64(i+1), senders[i], sizes[i])
	}
	after, _ := predict(t, d2.url(), tenant, stream, 1)
	if after.Observed != int64(half) {
		t.Fatalf("after recovery the session holds %d events, want exactly %d (no loss, no double-count)", after.Observed, half)
	}
	// Phase 2: resume the scored protocol for the second half.
	for i := half; i < len(senders); i++ {
		score(d2, hits, i)
		observeSeqOne(t, d2.url(), tenant, stream, int64(i+1), senders[i], sizes[i])
	}
	d2.stop(t)

	for k := 0; k < 5; k++ {
		if hits[k] != offline.Hits[k] {
			t.Errorf("horizon +%d: crash-recovery run scored %d hits, offline evalx %d", k+1, hits[k], offline.Hits[k])
		}
	}
}

// TestDaemonDrainsOnSIGTERM pins the drain sequence: the daemon
// announces the drain, finishes up, writes its final checkpoint and says
// so before exiting.
func TestDaemonDrainsOnSIGTERM(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.mps")
	d := startDaemon(t, "-snapshot", snap)
	observeOne(t, d.url(), "t", "s", 1, 2)
	d.stop(t)
	out := d.out.String()
	for _, want := range []string{"draining", "checkpointed 1 sessions", "drained, exiting"} {
		if !strings.Contains(out, want) {
			t.Fatalf("drain output misses %q:\n%s", want, out)
		}
	}
	if sessions, err := serve.LoadSnapshotFile(snap); err != nil || len(sessions) != 1 {
		t.Fatalf("final checkpoint unusable: %d sessions, err %v", len(sessions), err)
	}
}

// TestDaemonReadyzLifecycle pins the split health endpoints on a live
// daemon: /healthz and /readyz both answer 200 while serving.
func TestDaemonReadyzLifecycle(t *testing.T) {
	d := startDaemon(t)
	defer d.stop(t)
	for _, p := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(d.url() + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s returned %s", p, resp.Status)
		}
	}
}

func TestDaemonChaosFlagValidation(t *testing.T) {
	err := run([]string{"-chaos", "frobnicate=1"}, &bytes.Buffer{}, &bytes.Buffer{}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown chaos key") {
		t.Fatalf("bad chaos spec: got %v", err)
	}
	err = run([]string{"-replay", corpusBT4, "-target", "http://x", "-chaos", "err=0.5"}, &bytes.Buffer{}, &bytes.Buffer{}, nil)
	if err == nil || !strings.Contains(err.Error(), "ignored with -target") {
		t.Fatalf("chaos with -target: got %v", err)
	}
	err = run([]string{"-drain-timeout", "0s"}, &bytes.Buffer{}, &bytes.Buffer{}, nil)
	if err == nil || !strings.Contains(err.Error(), "-drain-timeout must be positive") {
		t.Fatalf("zero drain timeout: got %v", err)
	}
}

func TestDaemonPredictorFlagValidation(t *testing.T) {
	err := run([]string{"-predictor", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown -predictor") {
		t.Fatalf("unknown predictor: got %v", err)
	}
	err = run([]string{"-replay", corpusBT4, "-target", "http://x", "-predictor", "dpd"}, &bytes.Buffer{}, &bytes.Buffer{}, nil)
	if err == nil || !strings.Contains(err.Error(), "ignored with -target") {
		t.Fatalf("predictor with -target: got %v", err)
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-version"}, &out, &errb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "mpipredictd ") {
		t.Fatalf("version output = %q", out.String())
	}
}
