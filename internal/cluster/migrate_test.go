package cluster

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mpipredict/internal/serve"
)

// fakeSessions builds n real restorable sessions (fed through a registry,
// so every strategy state blob decodes) in canonical snapshot order.
func fakeSessions(t *testing.T, n int) []serve.SessionSnapshot {
	t.Helper()
	reg := serve.NewRegistry(serve.Config{})
	for i := 0; i < n; i++ {
		tenant := fmt.Sprintf("app.%02d", i%5)
		stream := fmt.Sprintf("r%02d/physical", i)
		if _, _, err := reg.ObserveBlockSeq(tenant, stream, "", int64(1), []int64{int64(i)}, []int64{64}); err != nil {
			t.Fatal(err)
		}
	}
	return reg.SnapshotSessions()
}

func TestPartitionSnapshotCoversEverySessionExactlyOnce(t *testing.T) {
	m, err := NewShardMap([]string{"http://n1", "http://n2", "http://n3"})
	if err != nil {
		t.Fatal(err)
	}
	sessions := fakeSessions(t, 30)
	parts := PartitionSnapshot(sessions, m)
	total := 0
	for backend, part := range parts {
		for _, s := range part {
			if owner := m.Owner(s.Tenant, s.Stream); owner != backend {
				t.Errorf("session %s/%s partitioned to %s, owner is %s", s.Tenant, s.Stream, backend, owner)
			}
			total++
		}
	}
	if total != len(sessions) {
		t.Fatalf("partition covers %d sessions, want %d", total, len(sessions))
	}
}

func TestMergeSnapshotsInvertsPartitionByteStably(t *testing.T) {
	m, err := NewShardMap([]string{"http://n1", "http://n2", "http://n3"})
	if err != nil {
		t.Fatal(err)
	}
	// Canonical (sorted) input, as SnapshotSessions produces.
	sessions := mergeSnapshots(fakeSessions(t, 24))
	want := encodeSnapshot(t, sessions)
	parts := PartitionSnapshot(sessions, m)
	var split [][]serve.SessionSnapshot
	for _, p := range parts {
		split = append(split, p)
	}
	got := encodeSnapshot(t, mergeSnapshots(split...))
	if !bytes.Equal(got, want) {
		t.Fatal("partition → merge round trip is not byte-stable")
	}
}

func TestRestoreToClusterFailsClosedOnDeadBackend(t *testing.T) {
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	sessions := fakeSessions(t, 12)
	// Kill the owner of the first session so its part cannot land.
	victim := c.shards.Owner(sessions[0].Tenant, sessions[0].Stream)
	c.backends[victim].dead.Store(true)
	if _, err := c.gw.RestoreToCluster(context.Background(), sessions); err == nil {
		t.Fatal("migration with a dead backend reported success")
	} else if !strings.Contains(err.Error(), victim) {
		t.Fatalf("error does not name the failed backend: %v", err)
	}
}

func TestMigrateFile(t *testing.T) {
	sessions := mergeSnapshots(fakeSessions(t, 10))
	path := filepath.Join(t.TempDir(), "state.mps")
	if err := serve.SaveSnapshotFile(path, sessions); err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, 3, serve.Config{}, fastOptions())
	restored, err := c.gw.MigrateFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range restored {
		total += n
	}
	if total != len(sessions) {
		t.Fatalf("migrated %d of %d sessions", total, len(sessions))
	}
	if got := c.mergedSnapshotBytes(t); !bytes.Equal(got, encodeSnapshot(t, sessions)) {
		t.Fatal("migrated cluster state differs from the file")
	}
	if _, err := c.gw.MigrateFile(context.Background(), filepath.Join(t.TempDir(), "missing.mps")); err == nil {
		t.Fatal("migrating a missing file succeeded")
	}
}
