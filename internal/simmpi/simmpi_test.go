package simmpi

import (
	"strings"
	"testing"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
)

func testConfig(procs int) Config {
	return Config{
		App:   "test",
		Procs: procs,
		Net:   simnet.NoiselessConfig(),
		Seed:  1,
	}
}

func noisyConfig(procs int) Config {
	cfg := testConfig(procs)
	cfg.Net = simnet.DefaultConfig()
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(2).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := testConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("zero procs should be rejected")
	}
	noApp := testConfig(2)
	noApp.App = ""
	if err := noApp.Validate(); err == nil {
		t.Error("empty app name should be rejected")
	}
	badNet := testConfig(2)
	badNet.Net.BandwidthBytesPerUS = -1
	if err := badNet.Validate(); err == nil {
		t.Error("invalid network config should be rejected")
	}
	if _, err := NewEngine(badNet); err == nil {
		t.Error("NewEngine should reject invalid config")
	}
}

func TestRunRejectsNilProgram(t *testing.T) {
	e, err := NewEngine(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil); err == nil {
		t.Error("nil program should be rejected")
	}
}

func TestPingPong(t *testing.T) {
	tr, err := Run(testConfig(2), func(r *Rank) {
		const rounds = 10
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				r.Send(1, 7, 1024)
				m := r.Recv(1, 8)
				if m.Sender != 1 || m.Size != 2048 || m.Tag != 8 {
					panic("rank 0 received wrong message")
				}
			} else {
				m := r.Recv(0, 7)
				if m.Sender != 0 || m.Size != 1024 {
					panic("rank 1 received wrong message")
				}
				r.Send(0, 8, 2048)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []trace.Level{trace.Logical, trace.Physical} {
		if got := len(tr.Filter(0, level)); got != 10 {
			t.Errorf("rank 0 %s records=%d want 10", level, got)
		}
		if got := len(tr.Filter(1, level)); got != 10 {
			t.Errorf("rank 1 %s records=%d want 10", level, got)
		}
	}
	sizes := tr.SizeStream(0, trace.Logical)
	for _, s := range sizes {
		if s != 2048 {
			t.Errorf("rank 0 should only receive 2048-byte messages, saw %d", s)
		}
	}
}

func TestClockAdvancesAndSimulatedTime(t *testing.T) {
	e, err := NewEngine(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var clock0, clock1 float64
	_, err = e.Run(func(r *Rank) {
		r.Compute(100)
		if r.ID() == 0 {
			r.Send(1, 0, 4096)
			clock0 = r.clock
		} else {
			m := r.Recv(0, 0)
			if m.Arrival <= 0 {
				panic("arrival time must be positive")
			}
			clock1 = r.clock
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock0 <= 100 {
		t.Errorf("sender clock=%g, should exceed the compute phase", clock0)
	}
	if clock1 <= clock0 {
		t.Errorf("receiver clock %g should be behind the message arrival, after sender clock %g", clock1, clock0)
	}
}

func TestMessageCounters(t *testing.T) {
	tr, err := Run(testConfig(2), func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, 0, 8)
			}
		} else {
			for i := 0; i < 5; i++ {
				r.Recv(0, 0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []trace.Level{trace.Logical, trace.Physical} {
		if n := len(tr.Filter(0, level)); n != 0 {
			t.Errorf("%v: rank 0 received %d messages, want 0", level, n)
		}
		recs := tr.Filter(1, level)
		if len(recs) != 5 {
			t.Errorf("%v: rank 1 received %d messages, want 5", level, len(recs))
		}
		for _, rec := range recs {
			if rec.Sender != 0 {
				t.Errorf("%v: rank 1 received from %d, want 0", level, rec.Sender)
			}
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		// Both ranks receive first: nobody ever sends.
		r.Recv(1-r.ID(), 0)
	})
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error should mention deadlock, got %v", err)
	}
	if !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("deadlock error should list the blocked ranks, got %v", err)
	}
}

func TestProgramPanicIsReported(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic should surface as an error, got %v", err)
	}
}

func TestSendToInvalidRankPanicsAndIsReported(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		if r.ID() == 0 {
			r.Send(5, 0, 8)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Fatalf("expected invalid-rank error, got %v", err)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	program := func(r *Rank) {
		for i := 0; i < 20; i++ {
			r.Compute(50)
			if r.ID() != 0 {
				r.Send(0, 1, int64(100*(r.ID()+1)))
			} else {
				for src := 1; src < r.Size(); src++ {
					r.Recv(src, 1)
				}
			}
		}
	}
	run := func(seed int64) *trace.Trace {
		cfg := noisyConfig(4)
		cfg.Seed = seed
		tr, err := Run(cfg, program)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(42), run(42)
	if a.Len() != b.Len() {
		t.Fatalf("same seed produced different record counts: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("same seed diverged at record %d: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
	c := run(43)
	same := true
	if c.Len() != a.Len() {
		same = false
	} else {
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should give different physical timings")
	}
}

func TestNoiselessLogicalEqualsPhysicalOrder(t *testing.T) {
	// Without jitter or imbalance, an acknowledged (flow-controlled)
	// exchange keeps every sender in lock-step with the receiver, so the
	// arrival order equals the receive order: the logical and physical
	// sender streams are identical. This is the deterministic baseline
	// against which the noisy run below shows reordering.
	tr, err := Run(testConfig(4), func(r *Rank) {
		const ackTag = 99
		for iter := 0; iter < 30; iter++ {
			if r.ID() == 0 {
				for src := 1; src < r.Size(); src++ {
					r.Recv(src, 0)
				}
				for src := 1; src < r.Size(); src++ {
					r.Send(src, ackTag, 4)
				}
			} else {
				r.Compute(10)
				r.Send(0, 0, int64(64*r.ID()))
				r.Recv(0, ackTag)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	logical := tr.SenderStream(0, trace.Logical)
	physical := tr.SenderStream(0, trace.Physical)
	if len(logical) != len(physical) || len(logical) != 90 {
		t.Fatalf("stream lengths %d/%d want 90/90", len(logical), len(physical))
	}
	for i := range logical {
		if logical[i] != physical[i] {
			t.Fatalf("noiseless run: logical and physical sender order differ at %d (%d vs %d)",
				i, logical[i], physical[i])
		}
	}
}

func TestNoisyPhysicalOrderDiffersFromLogical(t *testing.T) {
	cfg := noisyConfig(4)
	cfg.Net.JitterFrac = 0.6
	cfg.Net.ImbalanceFrac = 0.4
	tr, err := Run(cfg, func(r *Rank) {
		for iter := 0; iter < 100; iter++ {
			if r.ID() == 0 {
				for src := 1; src < r.Size(); src++ {
					r.Recv(src, 0)
				}
			} else {
				r.Compute(20)
				r.Send(0, 0, 256)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	logical := tr.SenderStream(0, trace.Logical)
	physical := tr.SenderStream(0, trace.Physical)
	diff := 0
	for i := range logical {
		if logical[i] != physical[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("with heavy noise the physical arrival order should differ from the logical order somewhere")
	}
	// The multiset of senders must still be identical: noise reorders
	// messages, it does not create or destroy them.
	countL := map[int64]int{}
	countP := map[int64]int{}
	for i := range logical {
		countL[logical[i]]++
		countP[physical[i]]++
	}
	for k, v := range countL {
		if countP[k] != v {
			t.Errorf("sender multiset mismatch for sender %d: %d vs %d", k, v, countP[k])
		}
	}
}

func TestPairwiseOrderingPreserved(t *testing.T) {
	// MPI guarantees that two messages from the same sender with the same
	// tag are received in send order, regardless of jitter.
	cfg := noisyConfig(2)
	cfg.Net.JitterFrac = 0.9
	tr, err := Run(cfg, func(r *Rank) {
		const n = 200
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, 0, int64(8+i)) // strictly increasing sizes encode send order
			}
		} else {
			prev := int64(-1)
			for i := 0; i < n; i++ {
				m := r.Recv(0, 0)
				if m.Size <= prev {
					panic("pairwise ordering violated")
				}
				prev = m.Size
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The logical size stream must be strictly increasing as well.
	sizes := tr.SizeStream(1, trace.Logical)
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("logical stream out of order at %d", i)
		}
	}
}

func TestAnySourceAndAnyTag(t *testing.T) {
	tr, err := Run(testConfig(3), func(r *Rank) {
		switch r.ID() {
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				m := r.Recv(AnySource, AnyTag)
				got[m.Sender] = true
			}
			if !got[1] || !got[2] {
				panic("wildcard receive should see both senders")
			}
		case 1:
			r.Compute(10)
			r.Send(0, 5, 64)
		case 2:
			r.Compute(20)
			r.Send(0, 9, 128)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Filter(0, trace.Logical)) != 2 {
		t.Error("rank 0 should have two logical records")
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	tr, err := Run(testConfig(3), func(r *Rank) {
		if r.ID() == 0 {
			reqs := []*Request{
				r.Irecv(1, 0),
				r.Irecv(2, 0),
			}
			msgs := r.Waitall(reqs)
			if msgs[0].Sender != 1 || msgs[1].Sender != 2 {
				panic("waitall returned messages out of request order")
			}
			for _, q := range reqs {
				if !q.done {
					panic("request should be done after Waitall")
				}
			}
		} else {
			q := r.Isend(0, 0, 512)
			if !q.done {
				panic("isend requests complete immediately in this runtime")
			}
			r.Wait(q)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	senders := tr.SenderStream(0, trace.Logical)
	if len(senders) != 2 || senders[0] != 1 || senders[1] != 2 {
		t.Errorf("logical senders=%v want [1 2] (wait order)", senders)
	}
}

func TestWaitOnForeignRequestPanics(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		if r.ID() == 0 {
			q := r.Irecv(1, 0)
			_ = q
		} else {
			// Waiting on a request created by another rank is a programming
			// error; craft one artificially.
			foreign := &Request{rank: nil}
			r.Wait(foreign)
		}
	})
	if err == nil {
		t.Fatal("expected an error from waiting on a foreign request")
	}
}

func TestWaitNilRequestPanics(t *testing.T) {
	_, err := Run(testConfig(1), func(r *Rank) {
		r.Wait(nil)
	})
	if err == nil {
		t.Fatal("expected an error from waiting on a nil request")
	}
}

func TestSendrecvExchange(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		peer := 1 - r.ID()
		for i := 0; i < 50; i++ {
			m := r.Sendrecv(peer, 3, 100, peer, 3)
			if m.Sender != peer || m.Size != 100 {
				panic("sendrecv returned wrong message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	_, err := Run(testConfig(1), func(r *Rank) {
		r.Send(0, 1, 64)
		m := r.Recv(0, 1)
		if m.Sender != 0 || m.Size != 64 {
			panic("self message corrupted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSizeClampedToZero(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, -5)
		} else {
			m := r.Recv(0, 0)
			if m.Size != 0 {
				panic("negative size should clamp to zero")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousChargesSenderClock(t *testing.T) {
	var eagerClock, rdvClock float64
	_, err := Run(testConfig(2), func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 16*1024) // at the limit: eager
			eagerClock = r.clock
			r.Send(1, 0, 64*1024) // above: rendezvous
			rdvClock = r.clock
		} else {
			r.Recv(0, 0)
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eagerCost := eagerClock
	rdvCost := rdvClock - eagerClock
	if rdvCost <= eagerCost {
		t.Errorf("rendezvous send should cost the sender more than an eager send: %g vs %g", rdvCost, eagerCost)
	}
}

func TestTraceReceiverFilter(t *testing.T) {
	cfg := testConfig(4)
	cfg.TraceReceivers = []int{2}
	tr, err := Run(cfg, func(r *Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() - 1 + r.Size()) % r.Size()
		for i := 0; i < 5; i++ {
			r.Send(next, 0, 32)
			r.Recv(prev, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Receivers(); len(got) != 1 || got[0] != 2 {
		t.Errorf("only rank 2 should be traced, got %v", got)
	}
	if len(tr.Filter(2, trace.Logical)) != 5 || len(tr.Filter(2, trace.Physical)) != 5 {
		t.Error("rank 2 should have 5 records at each level")
	}
}

// ---- collectives ----

func TestBcastMessageCounts(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, root := range []int{0, p - 1} {
			tr, err := Run(testConfig(p), func(r *Rank) {
				r.Bcast(root, 4096)
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
			total := 0
			for rank := 0; rank < p; rank++ {
				n := len(tr.Filter(rank, trace.Logical))
				total += n
				if rank == root && n != 0 {
					t.Errorf("p=%d root=%d: root received %d messages, want 0", p, root, n)
				}
				if rank != root && n != 1 {
					t.Errorf("p=%d root=%d: rank %d received %d messages, want 1", p, root, rank, n)
				}
			}
			if total != p-1 {
				t.Errorf("p=%d root=%d: total bcast messages=%d want %d", p, root, total, p-1)
			}
		}
	}
}

func TestReduceMessageCounts(t *testing.T) {
	for _, p := range []int{2, 3, 4, 6, 8} {
		tr, err := Run(testConfig(p), func(r *Rank) {
			r.Reduce(0, 1024)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		total := 0
		for rank := 0; rank < p; rank++ {
			total += len(tr.Filter(rank, trace.Logical))
		}
		if total != p-1 {
			t.Errorf("p=%d: total reduce messages=%d want %d", p, total, p-1)
		}
	}
}

func TestAlltoallCounts(t *testing.T) {
	p := 5
	tr, err := Run(testConfig(p), func(r *Rank) { r.Alltoall(64) })
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < p; rank++ {
		recs := tr.Filter(rank, trace.Logical)
		if len(recs) != p-1 {
			t.Errorf("alltoall: rank %d received %d messages, want %d", rank, len(recs), p-1)
		}
		seen := map[int]bool{}
		for _, rec := range recs {
			seen[rec.Sender] = true
		}
		if len(seen) != p-1 {
			t.Errorf("alltoall: rank %d should hear from every other rank, saw %v", rank, seen)
		}
	}
}

func TestAlltoallvSizes(t *testing.T) {
	p := 4
	tr, err := Run(testConfig(p), func(r *Rank) {
		sizes := make([]int64, p)
		for i := range sizes {
			sizes[i] = int64(1000*r.ID() + i) // unique per (sender, receiver)
		}
		r.Alltoallv(sizes)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < p; rank++ {
		recs := tr.Filter(rank, trace.Logical)
		if len(recs) != p-1 {
			t.Fatalf("alltoallv: rank %d received %d messages", rank, len(recs))
		}
		for _, rec := range recs {
			want := int64(1000*rec.Sender + rank)
			if rec.Size != want {
				t.Errorf("alltoallv size from %d to %d = %d, want %d", rec.Sender, rank, rec.Size, want)
			}
		}
	}
}

func TestAlltoallvRequiresOneSizePerRank(t *testing.T) {
	_, err := Run(testConfig(3), func(r *Rank) {
		r.Alltoallv([]int64{1, 2}) // wrong length
	})
	if err == nil {
		t.Fatal("expected an error for a malformed Alltoallv size vector")
	}
}

func TestCollectiveRootValidation(t *testing.T) {
	for name, prog := range map[string]Program{
		"bcast":   func(r *Rank) { r.Bcast(9, 8) },
		"reduce":  func(r *Rank) { r.Reduce(-1, 8) },
		"gather":  func(r *Rank) { r.gather(100, 8) },
		"scatter": func(r *Rank) { r.scatter(-2, 8) },
	} {
		if _, err := Run(testConfig(3), prog); err == nil {
			t.Errorf("%s with an out-of-range root should fail", name)
		}
	}
}

func TestSingleRankCollectivesAreNoOps(t *testing.T) {
	tr, err := Run(testConfig(1), func(r *Rank) {
		r.barrier()
		r.Bcast(0, 8)
		r.Reduce(0, 8)
		r.allreduce(8)
		r.allgather(8)
		r.Alltoall(8)
		r.gather(0, 8)
		r.scatter(0, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("single-rank collectives should produce no messages, got %d", tr.Len())
	}
}

func TestCollectivesMixedWithPointToPoint(t *testing.T) {
	// A miniature iterative application: neighbour exchange plus a
	// periodic allreduce, the mix BT-like codes have.
	p := 4
	tr, err := Run(testConfig(p), func(r *Rank) {
		right := (r.ID() + 1) % p
		left := (r.ID() - 1 + p) % p
		for iter := 0; iter < 10; iter++ {
			r.Compute(30)
			r.Send(right, 1, 1000)
			r.Recv(left, 1)
			if iter%5 == 4 {
				r.allreduce(16)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Characterize(1, trace.Logical, 1.0)
	if c.P2PMsgs != 10 {
		t.Errorf("p2p messages=%d want 10", c.P2PMsgs)
	}
	if c.CollMsgs != 2*2 {
		t.Errorf("collective messages=%d want 4 (2 allreduces x log2(4) rounds)", c.CollMsgs)
	}
}

func BenchmarkPingPong(b *testing.B) {
	cfg := testConfig(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Run(cfg, func(r *Rank) {
			for k := 0; k < 100; k++ {
				if r.ID() == 0 {
					r.Send(1, 0, 1024)
					r.Recv(1, 0)
				} else {
					r.Recv(0, 0)
					r.Send(0, 0, 1024)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlltoall16(b *testing.B) {
	cfg := testConfig(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, func(r *Rank) { r.Alltoall(1024) }); err != nil {
			b.Fatal(err)
		}
	}
}
