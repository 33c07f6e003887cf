package cluster

import (
	"fmt"
	"testing"
)

func TestNewShardMapValidation(t *testing.T) {
	if _, err := NewShardMap(nil); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := NewShardMap([]string{"a", ""}); err == nil {
		t.Fatal("empty backend name accepted")
	}
	if _, err := NewShardMap([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate backend accepted")
	}
}

func TestShardMapCanonicalOrder(t *testing.T) {
	m1, err := NewShardMap([]string{"c", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewShardMap([]string{"b", "c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := m1.Backends(), m2.Backends()
	if len(b1) != 3 || b1[0] != "a" || b1[1] != "b" || b1[2] != "c" {
		t.Fatalf("canonical order = %v", b1)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("membership order depends on input order: %v vs %v", b1, b2)
		}
	}
}

func TestShardMapOwnerDeterministic(t *testing.T) {
	m, err := NewShardMap([]string{"http://n1", "http://n2", "http://n3"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tenant := fmt.Sprintf("bt.%d", i)
		stream := fmt.Sprintf("r%d/sender", i)
		first := m.Owner(tenant, stream)
		for j := 0; j < 5; j++ {
			if got := m.Owner(tenant, stream); got != first {
				t.Fatalf("Owner(%q,%q) unstable: %q then %q", tenant, stream, first, got)
			}
		}
	}
}

// All backends should own a reasonable share of a synthetic keyspace.
// Rendezvous over FNV-1a is not perfectly uniform, but with 3 backends
// and 3000 keys every backend must land well away from zero.
func TestShardMapDistribution(t *testing.T) {
	m, err := NewShardMap([]string{"http://n1", "http://n2", "http://n3"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[m.Owner(fmt.Sprintf("app.%d", i%7), fmt.Sprintf("r%d/s", i))]++
	}
	for _, b := range m.Backends() {
		// Fair share is 1000; demand at least a third of that.
		if counts[b] < keys/9 {
			t.Fatalf("backend %s owns only %d of %d keys: %v", b, counts[b], keys, counts)
		}
	}
}

// The rendezvous property: dropping one backend moves only the keys that
// backend owned. Every key owned by a surviving backend keeps its owner.
func TestShardMapMinimalDisruption(t *testing.T) {
	backends := []string{"http://n1", "http://n2", "http://n3", "http://n4"}
	m, err := NewShardMap(backends)
	if err != nil {
		t.Fatal(err)
	}
	const victim = "http://n3"
	shrunk, err := NewShardMap([]string{"http://n1", "http://n2", "http://n4"})
	if err != nil {
		t.Fatal(err)
	}
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		tenant := fmt.Sprintf("app.%d", i%11)
		stream := fmt.Sprintf("r%d/size", i)
		before := m.Owner(tenant, stream)
		after := shrunk.Owner(tenant, stream)
		if before == victim {
			moved++
			if after == victim {
				t.Fatalf("key (%s,%s) still routed to removed backend", tenant, stream)
			}
			continue
		}
		if before != after {
			t.Fatalf("key (%s,%s) owned by surviving %s moved to %s", tenant, stream, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split: moved=%d kept=%d", moved, kept)
	}
}

func TestShardMapSingleBackendOwnsEverything(t *testing.T) {
	m, err := NewShardMap([]string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got := m.Owner("t", fmt.Sprintf("s%d", i)); got != "only" {
			t.Fatalf("Owner = %q, want only", got)
		}
	}
}
