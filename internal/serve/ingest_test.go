package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"mpipredict/internal/wire"
)

// TestObserveRefusalParity pins DESIGN §10's listener-parity invariant:
// every observe the HTTP surface refuses is refused on the wire with the
// paired code and the same message, and neither listener touches the
// registry for it.
func TestObserveRefusalParity(t *testing.T) {
	srv := NewServer(NewRegistry(Config{}))
	_, addr := startWireServer(t, srv)
	if _, err := observe(srv.Registry(), "t", "held", "dpd", Event{Sender: 1, Size: 2}); err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name                      string
		tenant, stream, predictor string
		seq                       int64
		events                    int
		status                    int
		code                      uint64
	}{
		{"empty tenant", "", "s", "", 1, 1, http.StatusBadRequest, wire.CodeBadRequest},
		{"257-byte stream", "t", strings.Repeat("s", MaxKeyLen+1), "", 1, 1, http.StatusBadRequest, wire.CodeBadRequest},
		{"empty events", "t", "s", "", 1, 0, http.StatusBadRequest, wire.CodeBadRequest},
		{"negative seq", "t", "s", "", -1, 1, http.StatusBadRequest, wire.CodeBadRequest},
		{"unknown predictor", "t", "s", "no-such", 1, 1, http.StatusBadRequest, wire.CodeBadRequest},
		{"strategy conflict", "t", "held", "markov1", 1, 1, http.StatusConflict, wire.CodeConflict},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			senders := make([]int64, row.events)
			sizes := make([]int64, row.events)

			body, err := json.Marshal(observeRequest{Tenant: row.tenant, Stream: row.stream,
				Predictor: row.predictor, Seq: row.seq, Senders: senders, Sizes: sizes})
			if err != nil {
				t.Fatal(err)
			}
			rec := postObserveJSON(t, srv, string(body))
			var reply struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("HTTP reply %q is not JSON: %v", rec.Body.String(), err)
			}
			if rec.Code != row.status {
				t.Errorf("HTTP status %d (%s), want %d", rec.Code, reply.Error, row.status)
			}

			ctx := context.Background()
			c, err := wire.Dial(ctx, addr, wire.ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.ObserveBlock(ctx, row.tenant, row.stream, row.predictor, row.seq, senders, sizes)
			if err == nil {
				err = c.Flush(ctx)
			}
			var remote *wire.RemoteError
			if !errors.As(err, &remote) {
				t.Fatalf("wire observe returned %v, want a refusal", err)
			}
			if remote.Code != row.code {
				t.Errorf("wire code %d (%s), want %d", remote.Code, remote.Msg, row.code)
			}
			if remote.Msg != reply.Error {
				t.Errorf("wire message %q differs from the HTTP one %q", remote.Msg, reply.Error)
			}
		})
	}
	if st := srv.Registry().Stats(); st.Sessions != 1 || st.Events != 1 {
		t.Fatalf("refused observes changed the registry: %+v", st)
	}
}

// FuzzObserveBody throws arbitrary bodies at the observe handler. No body
// may yield a 5xx or a recovered panic; every accepted body's "observed"
// must equal the session's count delta; and the same events given in the
// other body shape must leave byte-identical session state, which is
// what makes the object form a pure transcoding onto ObserveBlockSeq.
func FuzzObserveBody(f *testing.F) {
	f.Add([]byte(`{"tenant":"t","stream":"s","events":[{"sender":1,"size":10},{"sender":2,"size":20}]}`))
	f.Add([]byte(`{"tenant":"t","stream":"s","senders":[1,2,3],"sizes":[10,20,30]}`))
	f.Add([]byte(`{"tenant":"t","stream":"s","seq":9,"predictor":"dpd","senders":[4],"sizes":[8]}`))
	f.Add([]byte(`{"tenant":"t","stream":"new","predictor":"markov1","events":[{"sender":5}]}`))
	f.Add([]byte(`{"tenant":"t","stream":"s","seq":3,"events":[{"sender":1,"size":1}]}`))
	f.Add([]byte(`{"tenant":"t","stream":"s","events":[{"sender":1}],"senders":[1],"sizes":[1]}`))
	f.Add([]byte(`{"tenant":"t","stream":"s","senders":[1,2],"sizes":[1]}`))
	f.Add([]byte(`{"tenant":"t","stream":"s","seq":-1,"events":[]}`))

	// seeded returns a server whose registry holds one sequenced session,
	// so bodies can hit duplicates, conflicts and fresh sessions alike.
	seeded := func(t *testing.T) *Server {
		srv := NewServer(NewRegistry(Config{}))
		if _, _, err := srv.Registry().ObserveBlockSeq("t", "s", "dpd", 5, []int64{1, 2}, []int64{10, 20}); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	observed := func(srv *Server, req observeRequest) int64 {
		info, _ := srv.Registry().Info(req.Tenant, req.Stream)
		return info.Observed
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		srv := seeded(t)
		var req observeRequest
		decoded := json.Unmarshal(body, &req) == nil
		before := observed(srv, req)
		rec := postObserveJSON(t, srv, string(body))
		if rec.Code >= 500 || srv.recoveredPanics.Load() != 0 {
			t.Fatalf("body %q: status %d, recovered panics %d: %s", body, rec.Code, srv.recoveredPanics.Load(), rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return
		}
		if !decoded {
			t.Fatalf("handler accepted a body encoding/json rejects: %q", body)
		}
		var reply struct{ Observed int64 }
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("reply %q: %v", rec.Body.String(), err)
		}
		if delta := observed(srv, req) - before; reply.Observed != delta {
			t.Fatalf("body %q: reply observed %d, session grew by %d", body, reply.Observed, delta)
		}

		// The same events in the other body shape, on an identical server.
		twin := observeRequest{Tenant: req.Tenant, Stream: req.Stream, Predictor: req.Predictor, Seq: req.Seq}
		if len(req.Events) > 0 {
			for _, ev := range req.Events {
				twin.Senders = append(twin.Senders, ev.Sender)
				twin.Sizes = append(twin.Sizes, ev.Size)
			}
		} else {
			for i := range req.Senders {
				twin.Events = append(twin.Events, Event{Sender: req.Senders[i], Size: req.Sizes[i]})
			}
		}
		twinBody, err := json.Marshal(twin)
		if err != nil {
			t.Fatal(err)
		}
		other := seeded(t)
		if twinRec := postObserveJSON(t, other, string(twinBody)); twinRec.Code != rec.Code || twinRec.Body.String() != rec.Body.String() {
			t.Fatalf("body %q and its twin %q answer differently: %d %s vs %d %s",
				body, twinBody, rec.Code, rec.Body.String(), twinRec.Code, twinRec.Body.String())
		}
		got := encodeSnapshot(t, srv.Registry().SnapshotSessions())
		want := encodeSnapshot(t, other.Registry().SnapshotSessions())
		if !bytes.Equal(got, want) {
			t.Fatalf("body %q and its twin %q leave different sessions", body, twinBody)
		}
	})
}
