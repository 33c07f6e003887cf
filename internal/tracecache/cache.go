// Package tracecache provides a keyed, concurrency-safe cache of simulated
// workload traces.
//
// The paper's evaluation is a grid of (workload, process count, network
// config, seed) experiments, and several tables and figures draw on the
// same cells: Table 1, Figure 3 and Figure 4 all simulate the full paper
// grid, Figures 1 and 2 re-simulate BT instances that the grid already
// contains, and the scalability replays re-run BT.25 and friends. Because
// every simulation is a pure function of its RunConfig (the engine derives
// all randomness deterministically from the seed), identical configurations
// always produce identical traces — so simulating them more than once is
// pure waste. The cache memoises traces by their full configuration key and
// deduplicates concurrent requests singleflight-style: when several workers
// of the parallel experiment runner ask for the same spec at once, exactly
// one simulates and the rest wait for its result.
//
// A cache built with NewDiskStore adds a second, persistent tier: simulated
// traces are written as content-addressed files in the columnar trace
// store format (.mpts, internal/tracestore) under the cache directory, and
// later runs — including runs in fresh processes — promote entries from
// disk instead of re-simulating. See disk.go for the layout and the
// corruption story.
//
// Cached traces are shared: callers must treat them as read-only (which
// every consumer in this repository does — trace.Trace's stream index makes
// concurrent reads safe). Callers that need a private mutable trace should
// use workloads.Run directly.
package tracecache

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

// Key identifies one simulation configuration completely: two RunConfigs
// with equal keys produce identical traces.
type Key struct {
	App        string
	Procs      int
	Iterations int // effective (defaults resolved)
	Seed       int64
	Net        simnet.Config
	// Receivers is the canonical encoding of the traced receiver set:
	// "all", or a comma-separated sorted rank list such as "3" or "0,3,7".
	Receivers string
}

// KeyFor derives the cache key for a run configuration. It resolves the
// workload's default iteration count and the default traced receiver so
// that configurations that only differ in how the defaults are spelled
// share a cache entry.
func KeyFor(rc workloads.RunConfig) (Key, error) {
	iters, err := workloads.Iterations(rc.Spec)
	if err != nil {
		return Key{}, err
	}
	net := rc.Net
	if net == (simnet.Config{}) {
		net = simnet.DefaultConfig()
	}
	receivers := "all"
	if !rc.TraceAllReceivers {
		ranks := rc.TraceReceivers
		if len(ranks) == 0 {
			recv, err := workloads.TypicalReceiver(rc.Spec.Name, rc.Spec.Procs)
			if err != nil {
				return Key{}, err
			}
			ranks = []int{recv}
		}
		sorted := append([]int(nil), ranks...)
		sort.Ints(sorted)
		receivers = ""
		for i, r := range sorted {
			if i > 0 {
				receivers += ","
			}
			receivers += strconv.Itoa(r)
		}
	}
	return Key{
		App:        rc.Spec.Name,
		Procs:      rc.Spec.Procs,
		Iterations: iters,
		Seed:       rc.Seed,
		Net:        net,
		Receivers:  receivers,
	}, nil
}

// Stats counts what happened to a cache over its lifetime. Misses counts
// actual simulator invocations: a Get answered by the disk tier increments
// DiskHits instead, so Misses == 0 over a run proves the run needed no
// simulation at all.
type Stats struct {
	Hits       int64 // Get calls answered from a completed memory entry
	Misses     int64 // Get calls that ran the simulation
	Coalesced  int64 // Get calls that waited on another caller's fill
	DiskHits   int64 // entries promoted from the disk tier into memory
	DiskWrites int64 // fresh simulations persisted to the disk tier
	DiskErrors int64 // corrupt/unreadable/unwritable disk entries (recovered)
	Entries    int   // entries currently cached in memory

	// Columnar store counters (disk-tier caches only). The scan engine
	// reports what each promotion touched; corrupt store entries are
	// counted here as well as in DiskErrors before re-simulation.
	StoreBlocksRead       int64 // column blocks read while promoting store entries
	StorePartitionsPruned int64 // partitions skipped via the store footer index
	StoreCorruptBlocks    int64 // corrupt store entries dropped and re-simulated
}

// Delta returns s with before's counters subtracted; Entries stays
// absolute (it is a gauge, not a counter). CLIs use it to report the
// activity of one run against a snapshot taken before it.
func (s Stats) Delta(before Stats) Stats {
	s.Hits -= before.Hits
	s.Misses -= before.Misses
	s.Coalesced -= before.Coalesced
	s.DiskHits -= before.DiskHits
	s.DiskWrites -= before.DiskWrites
	s.DiskErrors -= before.DiskErrors
	s.StoreBlocksRead -= before.StoreBlocksRead
	s.StorePartitionsPruned -= before.StorePartitionsPruned
	s.StoreCorruptBlocks -= before.StoreCorruptBlocks
	return s
}

// String renders the counters in the one-line form the CLI -cache-stats
// flags print. Misses are labelled "simulations" because a miss is
// exactly one simulator invocation; simulations=0 proves a warm cache
// served everything.
func (s Stats) String() string {
	base := fmt.Sprintf("simulations=%d disk-hits=%d disk-writes=%d disk-errors=%d mem-hits=%d coalesced=%d entries=%d",
		s.Misses, s.DiskHits, s.DiskWrites, s.DiskErrors, s.Hits, s.Coalesced, s.Entries)
	if s.StoreBlocksRead != 0 || s.StorePartitionsPruned != 0 || s.StoreCorruptBlocks != 0 {
		base += fmt.Sprintf(" store-blocks=%d store-pruned=%d store-corrupt=%d",
			s.StoreBlocksRead, s.StorePartitionsPruned, s.StoreCorruptBlocks)
	}
	return base
}

// entry is one in-flight or completed simulation.
type entry struct {
	done chan struct{} // closed when tr/err are valid
	tr   *trace.Trace
	err  error
}

// Cache memoises workload simulations. The zero value is not usable; use
// New or NewDiskStore. A single Cache may be used from any number of
// goroutines.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	stats   Stats
	// dir, when non-empty, backs the memory tier with content-addressed
	// trace files (see disk.go). The memory tier promotes from disk on a
	// miss and writes through to disk after simulating.
	dir string
}

// New returns an empty memory-only cache.
func New() *Cache {
	return &Cache{entries: make(map[Key]*entry)}
}

// NewDiskStore returns a cache whose memory tier is backed by columnar
// trace store files (.mpts, internal/tracestore) under dir: entries are
// persisted as partitioned column blocks and promoted with a parallel
// scan, with the store's read accounting surfaced through the Store*
// Stats counters. The directory is created on first write; an existing
// directory warms the cache across process restarts. Several caches (in
// the same or different processes) may safely share one directory.
func NewDiskStore(dir string) *Cache {
	return &Cache{entries: make(map[Key]*entry), dir: dir}
}

// Shared is the process-wide cache used by the evaluation harness by
// default. The paper grid is small (a few dozen configurations), so the
// cache is unbounded; long-running processes that sweep many seeds should
// use a private Cache or Options.NoCache.
var Shared = New()

// Get returns the trace for the given run configuration, filling the entry
// at most once per key: from the disk tier when the cache has one and the
// entry is present there, from the simulator otherwise. Concurrent calls
// for the same key block until the single fill finishes and then share its
// result. Errors are cached too: a failing configuration fails the same
// way for every caller.
func (c *Cache) Get(rc workloads.RunConfig) (*trace.Trace, error) {
	key, err := KeyFor(rc)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.done:
			c.stats.Hits++
		default:
			c.stats.Coalesced++
		}
		c.mu.Unlock()
		<-e.done
		return e.tr, e.err
	}
	e := &entry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.tr, e.err = c.fill(key, func() (*trace.Trace, error) { return workloads.Run(rc) })
	close(e.done)
	return e.tr, e.err
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}
