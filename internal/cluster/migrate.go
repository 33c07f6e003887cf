package cluster

// Session migration: moving learned predictor state between backends
// when the shard map changes. The transport is the existing .mps
// snapshot format end to end — a backend's checkpoint (or a drained
// single daemon's) is partitioned by the new map and each part is POSTed
// to its owner's /v1/restore, which validates the whole upload before
// touching any session. Because snapshots are byte-stable and carry the
// per-session seq watermark, a migrated session is indistinguishable
// from one that lived on its new owner all along: forecasts, dedup
// behaviour and future checkpoints all match.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"mpipredict/internal/serve"
)

// PartitionSnapshot splits sessions by their owning backend under the
// map. Order within each part preserves the input order, so partitioning
// a canonically sorted snapshot yields canonically sorted parts.
func PartitionSnapshot(sessions []serve.SessionSnapshot, m *ShardMap) map[string][]serve.SessionSnapshot {
	parts := make(map[string][]serve.SessionSnapshot, m.Len())
	for _, s := range sessions {
		owner := m.Owner(s.Tenant, s.Stream)
		parts[owner] = append(parts[owner], s)
	}
	return parts
}

// restoreReply is the /v1/restore ack.
type restoreReply struct {
	Restored int `json:"restored"`
}

// RestoreToCluster partitions the sessions by the gateway's shard map
// and uploads each part to its owning backend's /v1/restore, with the
// gateway's usual retry discipline (restore replaces same-key sessions
// wholesale, so a retried upload is idempotent). It returns the number
// of sessions each backend acknowledged. Any backend failing after
// retries fails the whole migration: a half-migrated cluster would
// silently drop the missing shard's learned state, so the caller must
// know.
func (g *Gateway) RestoreToCluster(ctx context.Context, sessions []serve.SessionSnapshot) (map[string]int, error) {
	parts := PartitionSnapshot(sessions, g.shards)
	restored := make(map[string]int, len(parts))
	// Deterministic upload order keeps logs and failures reproducible.
	backends := make([]string, 0, len(parts))
	for b := range parts {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	for _, backend := range backends {
		var buf bytes.Buffer
		if err := serve.WriteSnapshot(&buf, parts[backend]); err != nil {
			return restored, fmt.Errorf("cluster: encoding snapshot part for %s: %w", backend, err)
		}
		res, err := g.forward(ctx, backend, http.MethodPost, "/v1/restore", buf.Bytes(), "application/octet-stream")
		if err != nil {
			return restored, fmt.Errorf("cluster: restoring %d sessions to %s: %w", len(parts[backend]), backend, err)
		}
		if res.status != http.StatusOK {
			return restored, fmt.Errorf("cluster: %s rejected restore with %d: %s", backend, res.status, bytes.TrimSpace(res.body))
		}
		var reply restoreReply
		if err := json.Unmarshal(res.body, &reply); err != nil {
			return restored, fmt.Errorf("cluster: decoding restore ack from %s: %w", backend, err)
		}
		if reply.Restored != len(parts[backend]) {
			return restored, fmt.Errorf("cluster: %s restored %d of %d sessions", backend, reply.Restored, len(parts[backend]))
		}
		restored[backend] = reply.Restored
	}
	return restored, nil
}

// MigrateFile loads a .mps snapshot file and restores its sessions
// across the cluster — the one-shot `mpigateway -migrate` operation that
// moves a single daemon's (or a decommissioned backend's) state onto the
// current shard map.
func (g *Gateway) MigrateFile(ctx context.Context, path string) (map[string]int, error) {
	sessions, err := serve.LoadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return g.RestoreToCluster(ctx, sessions)
}
