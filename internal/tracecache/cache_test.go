package tracecache

import (
	"reflect"
	"sync"
	"testing"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

func testRC(seed int64) workloads.RunConfig {
	return workloads.RunConfig{
		Spec: workloads.Spec{Name: "bt", Procs: 4, Iterations: 3},
		Net:  simnet.NoiselessConfig(),
		Seed: seed,
	}
}

func TestGetReturnsSameTraceForSameKey(t *testing.T) {
	c := New()
	tr1, err := c.Get(testRC(1))
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := c.Get(testRC(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Error("second Get should return the cached *Trace, got a different pointer")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry", s)
	}
}

func TestGetDistinguishesSeeds(t *testing.T) {
	c := New()
	tr1, err := c.Get(testRC(1))
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := c.Get(testRC(2))
	if err != nil {
		t.Fatal(err)
	}
	if tr1 == tr2 {
		t.Error("different seeds must not share a cache entry")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses", s)
	}
}

func TestKeyResolvesDefaults(t *testing.T) {
	// Spelling the defaults explicitly must land on the same key as
	// leaving them zero.
	implicit := workloads.RunConfig{Spec: workloads.Spec{Name: "bt", Procs: 9}, Seed: 1}
	recv, err := workloads.TypicalReceiver("bt", 9)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := workloads.Iterations(implicit.Spec)
	if err != nil {
		t.Fatal(err)
	}
	explicit := workloads.RunConfig{
		Spec:           workloads.Spec{Name: "bt", Procs: 9, Iterations: iters},
		Net:            simnet.DefaultConfig(),
		Seed:           1,
		TraceReceivers: []int{recv},
	}
	k1, err := KeyFor(implicit)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyFor(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("keys differ:\n  implicit: %+v\n  explicit: %+v", k1, k2)
	}
}

func TestConcurrentGetSimulatesOnce(t *testing.T) {
	c := New()
	const callers = 16
	traces := make([]*trace.Trace, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := c.Get(testRC(7))
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = tr
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("caller %d got a different trace pointer", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("stats = %+v, want exactly 1 simulation", s)
	}
	if s.Hits+s.Coalesced != callers-1 {
		t.Errorf("stats = %+v, want %d hits+coalesced", s, callers-1)
	}
}

func TestCachedTraceMatchesDirectRun(t *testing.T) {
	c := New()
	cached, err := c.Get(testRC(5))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := workloads.Run(testRC(5))
	if err != nil {
		t.Fatal(err)
	}
	if cached.App != direct.App || cached.Procs != direct.Procs {
		t.Fatalf("metadata mismatch: cached %s.%d, direct %s.%d",
			cached.App, cached.Procs, direct.App, direct.Procs)
	}
	if !reflect.DeepEqual(cached.Records, direct.Records) {
		t.Error("cached trace records differ from a direct simulation")
	}
}

func TestGetErrorIsCached(t *testing.T) {
	c := New()
	bad := workloads.RunConfig{Spec: workloads.Spec{Name: "no-such-app", Procs: 4}}
	if _, err := c.Get(bad); err == nil {
		t.Fatal("expected an error for an unknown workload")
	}
	if _, err := c.Get(bad); err == nil {
		t.Fatal("expected the cached error again")
	}
}
