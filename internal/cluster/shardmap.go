// Package cluster scales the online prediction service past one daemon:
// a deterministic shard map assigns every (tenant, stream) session to
// exactly one mpipredictd backend, a gateway (gateway.go) fronts the
// whole cluster behind the single-daemon HTTP surface, and a migration
// helper (migrate.go) moves sessions between backends through the
// existing .mps snapshot format when the map changes.
//
// The map uses rendezvous (highest-random-weight) hashing: every backend
// scores every key with an independent hash, and the highest score owns
// the key. Compared to a hash ring it needs no virtual-node tuning, has
// no coordination state at all — any process that knows the member list
// computes the identical assignment — and has the minimal-disruption
// property a session-owning cluster needs: removing one backend remaps
// only the keys that backend owned (each orphaned key falls to its
// second-highest scorer; nothing else moves), and adding one steals only
// the keys the newcomer now scores highest on. Sessions are sticky
// learned state, so "nothing else moves" is the difference between
// migrating one backend's sessions and re-learning the whole cluster.
package cluster

import (
	"fmt"
	"sort"
)

// ShardMap is an immutable membership snapshot: an ordered set of backend
// base URLs plus the rendezvous assignment they induce. Construct a new
// map for every membership change — handing out fresh values instead of
// mutating a shared one is what keeps Owner safe for concurrent use with
// zero locking.
type ShardMap struct {
	backends []string
}

// NewShardMap builds a map over the given backend base URLs. Order does
// not matter (the set is canonicalized by sorting), duplicates and empty
// names are rejected: a duplicate would silently double one backend's
// vote, and routing to "" can only be a config bug.
func NewShardMap(backends []string) (*ShardMap, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: shard map needs at least one backend")
	}
	sorted := make([]string, len(backends))
	copy(sorted, backends)
	sort.Strings(sorted)
	for i, b := range sorted {
		if b == "" {
			return nil, fmt.Errorf("cluster: empty backend name")
		}
		if i > 0 && sorted[i-1] == b {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b)
		}
	}
	return &ShardMap{backends: sorted}, nil
}

// Backends returns the members in canonical (sorted) order. The caller
// must not mutate the returned slice.
func (m *ShardMap) Backends() []string { return m.backends }

// Len returns the member count.
func (m *ShardMap) Len() int { return len(m.backends) }

// fnv1a64 hashes the rendezvous tuple (backend, tenant, stream) with the
// same inlined FNV-1a the registry's shard router uses, with a separator
// byte between fields so ("ab","c") and ("a","bc") score differently.
// The function must stay fixed forever: two processes disagreeing on it
// would route the same session to different owners.
func fnv1a64(backend, tenant, stream string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(backend); i++ {
		h = (h ^ uint64(backend[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint64(tenant[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * prime64
	}
	return h
}

// Owner returns the backend that owns the (tenant, stream) key: the
// highest rendezvous score, ties broken by canonical order (possible
// only under hash collision, but the tie-break keeps even that case
// deterministic across processes).
func (m *ShardMap) Owner(tenant, stream string) string {
	best := 0
	bestScore := fnv1a64(m.backends[0], tenant, stream)
	for i := 1; i < len(m.backends); i++ {
		if score := fnv1a64(m.backends[i], tenant, stream); score > bestScore {
			best, bestScore = i, score
		}
	}
	return m.backends[best]
}
