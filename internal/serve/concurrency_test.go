package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentSessionsMatchSerialRun is the registry's determinism
// contract under load: N goroutines drive overlapping sessions — each
// goroutine owns one session's observe stream (preserving per-session
// event order, as one connection per stream would) while every goroutine
// also fires forecast and info queries against all the other sessions.
// After the storm, every session's full predictor snapshot must equal the
// snapshot produced by a serial replay of the same streams. Run under
// -race this also proves the shard locking is sound.
func TestConcurrentSessionsMatchSerialRun(t *testing.T) {
	const (
		goroutines = 8
		events     = 2500
	)
	cfg := Config{Shards: 4}

	// Build per-session streams: periodic with occasional deterministic
	// perturbations so locks, unlocks and relearns all happen.
	streams := make([][]Event, goroutines)
	for g := range streams {
		rng := rand.New(rand.NewSource(int64(g + 1)))
		period := 3 + g%5
		evs := make([]Event, events)
		for i := range evs {
			evs[i] = Event{Sender: int64(i % period), Size: int64(10 * (i % period))}
			if rng.Intn(16) == 0 {
				evs[i].Sender = int64(rng.Intn(period + 2))
			}
		}
		streams[g] = evs
	}
	name := func(g int) string { return fmt.Sprintf("stream-%d", g) }

	concurrent := NewRegistry(cfg)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]Forecast, 0, 8)
			for i, ev := range streams[g] {
				observe(concurrent, "load", name(g), "", ev)
				// Cross-session queries: hit a rotating neighbour so every
				// session is being read while others write to its shard.
				if i%7 == 0 {
					other := name((g + i) % goroutines)
					buf, _, _ = concurrent.ForecastInto(buf[:0], "load", other, 5)
					concurrent.Info("load", other)
				}
			}
		}(g)
	}
	wg.Wait()

	serial := NewRegistry(cfg)
	for g := 0; g < goroutines; g++ {
		for _, ev := range streams[g] {
			observe(serial, "load", name(g), "", ev)
		}
	}

	got := concurrent.SnapshotSessions()
	want := serial.SnapshotSessions()
	if len(got) != len(want) {
		t.Fatalf("session count differs: concurrent %d, serial %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("session %s/%s diverged from the serial run:\n got %+v\nwant %+v",
				want[i].Tenant, want[i].Stream, got[i], want[i])
		}
	}
	if ev := concurrent.Stats().Events; ev != int64(goroutines*events) {
		t.Fatalf("event counter = %d, want %d", ev, goroutines*events)
	}
}

// TestConcurrentObserveBatchSharedShard hammers one shard from many
// goroutines with batches for distinct sessions; totals and final session
// counts must come out exact.
func TestConcurrentObserveBatchSharedShard(t *testing.T) {
	r := NewRegistry(Config{Shards: 1, MaxSessions: 64})
	const (
		goroutines = 16
		batches    = 50
		batchLen   = 20
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			events := make([]Event, batchLen)
			for b := 0; b < batches; b++ {
				for i := range events {
					events[i] = Event{Sender: int64(i % 3), Size: int64(b)}
				}
				observe(r, "t", fmt.Sprintf("s%d", g), "", events...)
			}
		}(g)
	}
	wg.Wait()

	if r.Len() != goroutines {
		t.Fatalf("Len = %d, want %d", r.Len(), goroutines)
	}
	for g := 0; g < goroutines; g++ {
		info, ok := r.Info("t", fmt.Sprintf("s%d", g))
		if !ok || info.Observed != batches*batchLen {
			t.Fatalf("session s%d: observed %d (ok=%v), want %d", g, info.Observed, ok, batches*batchLen)
		}
	}
	if ev := r.Stats().Events; ev != goroutines*batches*batchLen {
		t.Fatalf("event counter = %d, want %d", ev, goroutines*batches*batchLen)
	}
}

// TestConcurrentSweepAndObserve lets idle sweeps race observes; nothing
// must deadlock, and a session being actively observed must survive.
func TestConcurrentSweepAndObserve(t *testing.T) {
	r := NewRegistry(Config{Shards: 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.SweepIdle()
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		observe(r, "t", "live", "", Event{Sender: int64(i % 3), Size: 1})
	}
	close(stop)
	wg.Wait()
	if _, ok := r.Info("t", "live"); !ok {
		t.Fatal("actively observed session was swept")
	}
}
