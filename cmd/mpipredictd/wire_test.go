package main

// End-to-end coverage for the daemon's binary wire surface: the
// -listen-wire listener, -transport negotiation, the -loadgen mode, and
// drain behavior with live wire connections. The accuracy parity test
// is the acceptance proof that a session fed over the wire protocol is
// indistinguishable — hit for hit, scored over the HTTP API — from one
// fed over HTTP, including adaptive meta sessions.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"mpipredict/internal/serve"
	"mpipredict/internal/trace"
	"mpipredict/internal/wire"
	"mpipredict/internal/workloads"
)

// wireAddr extracts the daemon's advertised wire address from /healthz.
func wireAddr(t *testing.T, d *daemon) string {
	t.Helper()
	resp, err := http.Get(d.url() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct {
		Wire string `json:"wire"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Wire == "" {
		t.Fatal("healthz advertises no wire listener")
	}
	return reply.Wire
}

// TestDaemonWireAccuracyParity feeds the corpus receiver's event stream
// into two identically configured daemons — one over the binary wire
// protocol, one over HTTP — scoring each step's /v1/predict, and
// requires hit-for-hit identical accuracy and identical final
// forecasts. Run for the default strategy and for adaptive meta
// sessions, whose online telemetry must also agree.
func TestDaemonWireAccuracyParity(t *testing.T) {
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

	for _, strat := range []string{"", "meta"} {
		name := strat
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			args := []string{"-listen-wire", "127.0.0.1:0"}
			if strat != "" {
				args = append(args, "-predictor", strat)
			}
			dWire := startDaemon(t, args...)
			defer dWire.stop(t)
			dHTTP := startDaemon(t, args[2:]...)
			defer dHTTP.stop(t)

			ctx := context.Background()
			c, err := wire.Dial(ctx, wireAddr(t, dWire), wire.ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var wireHits, httpHits int
			for i := range senders {
				pw, foundW := predict(t, dWire.url(), "par", "s", 5)
				ph, foundH := predict(t, dHTTP.url(), "par", "s", 5)
				if foundW != foundH {
					t.Fatalf("event %d: wire-fed found=%v, http-fed found=%v", i, foundW, foundH)
				}
				if foundW {
					for k := range pw.Forecasts {
						if pw.Forecasts[k] != ph.Forecasts[k] {
							t.Fatalf("event %d horizon +%d: wire-fed forecast %+v, http-fed %+v", i, k+1, pw.Forecasts[k], ph.Forecasts[k])
						}
						if idx := i + k; idx < len(senders) && pw.Forecasts[k].SenderOK && pw.Forecasts[k].Sender == senders[idx] {
							wireHits++
						}
						if idx := i + k; idx < len(senders) && ph.Forecasts[k].SenderOK && ph.Forecasts[k].Sender == senders[idx] {
							httpHits++
						}
					}
				}
				if err := c.ObserveBlock(ctx, "par", "s", "", int64(i+1), senders[i:i+1], sizes[i:i+1]); err != nil {
					t.Fatal(err)
				}
				if err := c.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				observeSeq(t, dHTTP.url(), "par", "s", int64(i+1), senders[i], sizes[i])
			}
			if wireHits != httpHits {
				t.Fatalf("accuracy diverged: wire-fed scored %d hits, http-fed %d", wireHits, httpHits)
			}
			if wireHits == 0 {
				t.Fatal("no hits scored at all — the parity check is vacuous")
			}

			// The sessions must also agree on everything /v1/sessions
			// reports — observed counts, strategy, and for meta sessions the
			// router telemetry (leaders, switches, rolling hit rates).
			listSessions := func(url string) []serve.SessionInfo {
				resp, err := http.Get(url + "/v1/sessions")
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
			sw, sh := listSessions(dWire.url()), listSessions(dHTTP.url())
			for _, list := range [][]serve.SessionInfo{sw, sh} {
				for i := range list {
					// Wall-clock fields legitimately differ between the runs.
					list[i].CreatedUnix, list[i].LastSeenUnix, list[i].IdleSeconds = 0, 0, 0
				}
			}
			jw, _ := json.Marshal(sw)
			jh, _ := json.Marshal(sh)
			if !bytes.Equal(jw, jh) {
				t.Fatalf("session listings diverged:\nwire-fed: %s\nhttp-fed: %s", jw, jh)
			}
			if strat == "meta" && !strings.Contains(string(jw), "meta") {
				t.Fatalf("meta session telemetry missing from listing: %s", jw)
			}
		})
	}
}

// TestDaemonSelfReplayUpgradesToWire: with -listen-wire, the daemon's
// own self-replay negotiates the wire transport via its /healthz.
func TestDaemonSelfReplayUpgradesToWire(t *testing.T) {
	d := startDaemon(t, "-listen-wire", "127.0.0.1:0", "-replay", corpusBT4)
	defer d.stop(t)
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(d.out.String(), "replay tenant=bt.4") {
		if time.Now().After(deadline) {
			t.Fatalf("missing replay report in output:\n%s", d.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(d.out.String(), "transport=wire") {
		t.Fatalf("self-replay did not negotiate the wire transport:\n%s", d.out.String())
	}
	pr, found := predict(t, d.url(), "bt.4", "r3/physical", 3)
	if !found || len(pr.Forecasts) != 3 {
		t.Fatalf("no replayed session after wire self-replay (found=%v)", found)
	}
}

// TestDaemonClientModeTransportFlag pins -transport on the replay
// client: wire when asked and available, http when pinned, and an
// honest error when wire is demanded but not served.
func TestDaemonClientModeTransportFlag(t *testing.T) {
	d := startDaemon(t, "-listen-wire", "127.0.0.1:0")
	defer d.stop(t)

	for _, tc := range []struct{ flag, want string }{
		{"wire", "transport=wire"},
		{"http", "transport=http"},
		{"auto", "transport=wire"},
	} {
		var out, errb bytes.Buffer
		if err := run([]string{"-replay", corpusBT4, "-target", d.url(), "-transport", tc.flag}, &out, &errb, nil); err != nil {
			t.Fatalf("-transport %s: %v\nstderr: %s", tc.flag, err, errb.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Fatalf("-transport %s: missing %q in report:\n%s", tc.flag, tc.want, out.String())
		}
	}

	plain := startDaemon(t)
	defer plain.stop(t)
	var out, errb bytes.Buffer
	err := run([]string{"-replay", corpusBT4, "-target", plain.url(), "-transport", "wire"}, &out, &errb, nil)
	if err == nil || !strings.Contains(err.Error(), "no wire listener") {
		t.Fatalf("forced wire against a wireless daemon: got %v, want a no-wire-listener error", err)
	}
}

// TestDaemonLoadGenMode runs the load generator against a live daemon
// over both transports and checks the throughput report and the
// resulting sessions.
func TestDaemonLoadGenMode(t *testing.T) {
	d := startDaemon(t, "-listen-wire", "127.0.0.1:0")
	defer d.stop(t)

	for _, transport := range []string{"wire", "http"} {
		var out, errb bytes.Buffer
		err := run([]string{
			"-loadgen", "20000", "-target", d.url(), "-transport", transport,
			"-loadgen-sessions", "4", "-loadgen-conns", "2", "-loadgen-tenant", "lg-" + transport,
		}, &out, &errb, nil)
		if err != nil {
			t.Fatalf("loadgen over %s: %v\nstderr: %s", transport, err, errb.String())
		}
		report := out.String()
		for _, want := range []string{"transport=" + transport, "events=20000", "duplicates=0", "events/s"} {
			if !strings.Contains(report, want) {
				t.Fatalf("loadgen report over %s missing %q:\n%s", transport, want, report)
			}
		}
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
	observed := map[string]int64{}
	for _, s := range listing.Sessions {
		observed[s.Tenant] += s.Observed
	}
	if observed["lg-wire"] != 20000 || observed["lg-http"] != 20000 {
		t.Fatalf("loadgen sessions observed %v, want 20000 per tenant", observed)
	}
}

// TestDaemonDrainCutsIdleWireConnection: a SIGTERM drain must not hang
// on a wire client that holds its connection open without sending — the
// drain deadline cuts it off.
func TestDaemonDrainCutsIdleWireConnection(t *testing.T) {
	d := startDaemon(t, "-listen-wire", "127.0.0.1:0", "-drain-timeout", "500ms")
	c, err := wire.Dial(context.Background(), wireAddr(t, d), wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ObserveBlock(context.Background(), "t", "s", "", 1, []int64{1}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d.stop(t) // fails the test if the drain exceeds its 10s patience
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain with an idle wire connection took %s", elapsed)
	}
}

// TestDaemonWireFlagValidation covers the new flags' cross-checks.
func TestDaemonWireFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-loadgen", "100"}, "requires -target"},
		{[]string{"-loadgen", "-5", "-target", "http://x"}, "must be positive"},
		{[]string{"-loadgen", "100", "-target", "http://x", "-replay", corpusBT4}, "pick one"},
		{[]string{"-loadgen-conns", "2"}, "no effect without -loadgen"},
		{[]string{"-transport", "wire"}, "only affects replay and loadgen"},
		{[]string{"-transport", "bogus", "-replay", corpusBT4}, "unknown -transport"},
		{[]string{"-listen-wire", "127.0.0.1:0", "-target", "http://x", "-replay", corpusBT4}, "ignored with -target"},
		{[]string{"-loadgen", "100", "-target", "http://x", "-loadgen-predictor", "bogus"}, "unknown -loadgen-predictor"},
	}
	for _, tc := range cases {
		err := run(tc.args, &bytes.Buffer{}, &bytes.Buffer{}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
