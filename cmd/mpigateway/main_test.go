package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mpipredict/internal/serve"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
)

// syncBuffer guards concurrent writes from the gateway goroutine against
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

// backend is one in-process mpipredictd-equivalent: a serve.Server over
// a registry behind a real listener.
type backend struct {
	reg *serve.Registry
	ts  *httptest.Server
}

func newBackend(t *testing.T) *backend {
	t.Helper()
	reg := serve.NewRegistry(serve.Config{})
	b := &backend{reg: reg, ts: httptest.NewServer(serve.NewServer(reg))}
	t.Cleanup(b.ts.Close)
	return b
}

// gatewayProc is one in-process mpigateway instance under test.
type gatewayProc struct {
	addr string
	sigs chan os.Signal
	done chan error
	out  *syncBuffer
	errb *syncBuffer
}

// startGateway launches run() with -addr 127.0.0.1:0 plus the given args
// and waits until it listens.
func startGateway(t *testing.T, args ...string) *gatewayProc {
	t.Helper()
	g := &gatewayProc{
		sigs: make(chan os.Signal, 1),
		done: make(chan error, 1),
		out:  &syncBuffer{},
		errb: &syncBuffer{},
	}
	addrCh := make(chan string, 1)
	onListen = func(a string) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })
	go func() {
		g.done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), g.out, g.errb, g.sigs)
	}()
	select {
	case g.addr = <-addrCh:
	case err := <-g.done:
		t.Fatalf("gateway exited before listening: %v\nstderr: %s", err, g.errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("gateway did not start listening within 10s")
	}
	return g
}

func (g *gatewayProc) url() string { return "http://" + g.addr }

// stop sends SIGTERM and waits for a clean exit.
func (g *gatewayProc) stop(t *testing.T) {
	t.Helper()
	g.sigs <- syscall.SIGTERM
	select {
	case err := <-g.done:
		if err != nil {
			t.Fatalf("gateway shutdown: %v\nstderr: %s", err, g.errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gateway did not shut down within 10s")
	}
}

func backendsFlag(bs ...*backend) string {
	urls := make([]string, len(bs))
	for i, b := range bs {
		urls[i] = b.ts.URL
	}
	return strings.Join(urls, ",")
}

func TestGatewayServesClusterEndToEnd(t *testing.T) {
	b1, b2, b3 := newBackend(t), newBackend(t), newBackend(t)
	g := startGateway(t, "-backends", backendsFlag(b1, b2, b3), "-retry-base", "1ms")
	defer g.stop(t)

	// Replay a corpus trace through the gateway; sessions must appear on
	// the backends and the gateway listing must see all of them.
	tr, err := trace.Load("../../testdata/corpus/bt.4.mpts")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := serve.ReplaySource(context.Background(), g.url(), stream.TraceSource(tr), serve.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if total := b1.reg.Len() + b2.reg.Len() + b3.reg.Len(); total != stats.Sessions {
		t.Fatalf("backends hold %d sessions, replay created %d", total, stats.Sessions)
	}
	resp, err := http.Get(g.url() + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Total    int  `json:"total"`
		Degraded bool `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Total != stats.Sessions || listing.Degraded {
		t.Fatalf("gateway listing: total=%d degraded=%v, want %d healthy", listing.Total, listing.Degraded, stats.Sessions)
	}
	if !strings.Contains(g.out.String(), "routing over 3 backends") {
		t.Fatalf("startup banner missing: %s", g.out.String())
	}
}

func TestGatewayMigrateMode(t *testing.T) {
	// A populated "single daemon" checkpoint...
	source := serve.NewRegistry(serve.Config{})
	for i := 0; i < 6; i++ {
		if _, _, err := source.ObserveBlockSeq(fmt.Sprintf("app.%d", i), "r0/physical", "", 1, []int64{1}, []int64{8}); err != nil {
			t.Fatal(err)
		}
	}
	snap := filepath.Join(t.TempDir(), "state.mps")
	if err := serve.SaveSnapshotFile(snap, source.SnapshotSessions()); err != nil {
		t.Fatal(err)
	}
	// ...migrated across two fresh backends in one -migrate run.
	b1, b2 := newBackend(t), newBackend(t)
	var out, errb syncBuffer
	if err := run([]string{"-backends", backendsFlag(b1, b2), "-migrate", snap}, &out, &errb, nil); err != nil {
		t.Fatalf("migrate run: %v\nstderr: %s", err, errb.String())
	}
	if b1.reg.Len()+b2.reg.Len() != 6 {
		t.Fatalf("cluster holds %d sessions after migrate, want 6", b1.reg.Len()+b2.reg.Len())
	}
	if !strings.Contains(out.String(), "migrated 6 sessions") {
		t.Fatalf("migrate summary missing: %s", out.String())
	}
	// Server knobs are rejected in migrate mode rather than ignored.
	if err := run([]string{"-backends", backendsFlag(b1), "-migrate", snap, "-addr", "127.0.0.1:9"}, &out, &errb, nil); err == nil {
		t.Fatal("-addr with -migrate was silently ignored")
	}
}

func TestGatewayFlagValidation(t *testing.T) {
	var out, errb syncBuffer
	cases := [][]string{
		{},                                     // missing -backends
		{"-backends", "not-a-url"},             // invalid backend
		{"-backends", "ftp://x"},               // wrong scheme
		{"-backends", "http://a:1/path"},       // path not allowed
		{"-backends", "http://a:1,http://a:1"}, // duplicate
		{"-backends", "http://a:1", "extra"},   // positional junk
		{"-backends", "http://a:1", "-backend-timeout", "-1s"},
	}
	for _, args := range cases {
		if err := run(args, &out, &errb, nil); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestGatewayVersionFlag(t *testing.T) {
	var out, errb syncBuffer
	if err := run([]string{"-version"}, &out, &errb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "mpigateway ") {
		t.Fatalf("version output = %q", out.String())
	}
}

func TestGatewayRefusesMismatchedBackendBuilds(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"buildinfo":{"version":"v0.0-other","commit":"0000000","go_version":"go0.0"}}`)
	}))
	defer fake.Close()
	var out, errb syncBuffer
	err := run([]string{"-backends", fake.URL}, &out, &errb, nil)
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("mismatched backend build: err=%v", err)
	}
	// -skip-build-check lets the same cluster boot.
	g := startGateway(t, "-backends", fake.URL, "-skip-build-check")
	resp, err := http.Get(g.url() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	g.stop(t)
	if !strings.Contains(g.errb.String(), "build check skipped") {
		t.Fatalf("skip warning missing: %s", g.errb.String())
	}
}

func TestGatewayWarnsOnUnreachableBackendAtStartup(t *testing.T) {
	live := newBackend(t)
	// An unused port: reserved then released, so nothing listens there.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	g := startGateway(t, "-backends", live.ts.URL+","+deadURL, "-backend-timeout", "500ms", "-retry-base", "1ms")
	defer g.stop(t)
	if !strings.Contains(g.errb.String(), "unreachable") {
		t.Fatalf("no unreachable warning: %s", g.errb.String())
	}
}
