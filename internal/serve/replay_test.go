package serve

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"mpipredict/internal/evalx"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

// corpusTrace loads one golden corpus trace.
func corpusTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	tr, err := trace.Load("../../testdata/corpus/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestReplayFeedsEveryStream(t *testing.T) {
	tr := corpusTrace(t, "bt.4.mpts")
	srv := NewServer(NewRegistry(Config{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stats, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), ReplayOptions{BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tenant != DefaultTenant(tr) {
		t.Fatalf("tenant = %q, want %q", stats.Tenant, DefaultTenant(tr))
	}
	// Every traced (receiver, level) stream becomes one session with
	// exactly the stream's event count.
	wantSessions := 0
	var wantEvents int64
	for _, receiver := range tr.Receivers() {
		for _, level := range []trace.Level{trace.Logical, trace.Physical} {
			if n := len(tr.SenderStreamShared(receiver, level)); n > 0 {
				wantSessions++
				wantEvents += int64(n)
				info, ok := srv.Registry().Info(stats.Tenant, StreamName(receiver, level))
				if !ok {
					t.Fatalf("no session for receiver %d level %s", receiver, level)
				}
				if info.Observed != int64(n) {
					t.Fatalf("receiver %d level %s: observed %d, want %d", receiver, level, info.Observed, n)
				}
			}
		}
	}
	if stats.Sessions != wantSessions || stats.Events != wantEvents {
		t.Fatalf("stats = %+v, want %d sessions and %d events", stats, wantSessions, wantEvents)
	}
	if stats.Requests == 0 || stats.EventsPerSec() <= 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
}

// TestReplayedSessionMatchesOfflinePredictorState is the serving
// subsystem's fidelity proof at the state level: after replaying a trace
// through the HTTP API, each session's predictor snapshot equals a
// predictor fed the same stream directly. (The cmd/mpipredictd end-to-end
// test extends this to prediction *accuracy* matching the offline evalx
// protocol.)
func TestReplayedSessionMatchesOfflinePredictorState(t *testing.T) {
	tr := corpusTrace(t, "bt.4.mpts")
	srv := NewServer(NewRegistry(Config{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), ReplayOptions{}); err != nil {
		t.Fatal(err)
	}

	receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []trace.Level{trace.Logical, trace.Physical} {
		offline := NewRegistry(Config{})
		senders := tr.SenderStreamShared(receiver, level)
		sizes := tr.SizeStreamShared(receiver, level)
		if _, _, err := offline.ObserveBlockSeq("x", "y", "", 0, senders, sizes); err != nil {
			t.Fatal(err)
		}
		want := offline.SnapshotSessions()[0]
		served, ok := snapshotFor(srv.Registry(), DefaultTenant(tr), StreamName(receiver, level))
		if !ok {
			t.Fatalf("no served session for level %s", level)
		}
		if !reflect.DeepEqual(served.Sender, want.Sender) || !reflect.DeepEqual(served.Size, want.Size) {
			t.Fatalf("level %s: served predictor state diverges from direct feeding", level)
		}
	}
}

func snapshotFor(r *Registry, tenant, stream string) (SessionSnapshot, bool) {
	for _, s := range r.SnapshotSessions() {
		if s.Tenant == tenant && s.Stream == stream {
			return s, true
		}
	}
	return SessionSnapshot{}, false
}

func TestReplayAgainstDeadServer(t *testing.T) {
	tr := corpusTrace(t, "bt.4.mpts")
	ts := httptest.NewServer(NewServer(NewRegistry(Config{})))
	ts.Close() // dead before the replay starts
	// Retries disabled: a permanently dead server would otherwise burn the
	// whole backoff schedule before failing, for no extra coverage here.
	if _, err := ReplaySource(context.Background(), ts.URL, stream.TraceSource(tr), ReplayOptions{MaxRetries: -1}); err == nil {
		t.Fatal("replay against a closed server succeeded")
	}
}

// TestReplayMatchesEvalxAccuracyOverHTTP scores predictions through the
// HTTP API with the exact measurement protocol of the offline harness
// (predict +1..+5 before each observation) and requires hit-for-hit
// equality with evalx.EvaluateStream on the same stream.
func TestReplayMatchesEvalxAccuracyOverHTTP(t *testing.T) {
	tr := corpusTrace(t, "bt.4.mpts")
	receiver, err := workloads.PickReplayReceiver(tr.App, tr.Procs, tr.Receivers())
	if err != nil {
		t.Fatal(err)
	}
	senders := tr.SenderStreamShared(receiver, trace.Physical)
	sizes := tr.SizeStreamShared(receiver, trace.Physical)
	offline := evalx.EvaluateStream(senders, nil, 5)

	srv := NewServer(NewRegistry(Config{}))
	reg := srv.Registry()
	hits := make([]int, 5)
	total := make([]int, 5)
	buf := make([]Forecast, 0, 5)
	for i := range senders {
		buf, _, _ = reg.ForecastInto(buf[:0], "t", "s", 5)
		for k := 1; k <= 5; k++ {
			idx := i + k - 1
			if idx >= len(senders) {
				continue
			}
			total[k-1]++
			if len(buf) == 5 && buf[k-1].SenderOK && buf[k-1].Sender == senders[idx] {
				hits[k-1]++
			}
		}
		observe(reg, "t", "s", "", Event{Sender: senders[i], Size: sizes[i]})
	}
	for k := 0; k < 5; k++ {
		if hits[k] != offline.Hits[k] || total[k] != offline.Total[k] {
			t.Fatalf("horizon +%d: served %d/%d, offline %d/%d", k+1, hits[k], total[k], offline.Hits[k], offline.Total[k])
		}
	}
}
