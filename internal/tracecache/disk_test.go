package tracecache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/workloads"
)

// freshDisk returns a disk-backed cache over a new (or shared) directory.
func freshDisk(t *testing.T, dir string) *Cache {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	return NewDiskStore(dir)
}

func entryPath(t *testing.T, dir string, rc workloads.RunConfig) string {
	t.Helper()
	key, err := KeyFor(rc)
	if err != nil {
		t.Fatal(err)
	}
	return StorePath(dir, key)
}

func TestDiskColdMissSimulatesAndPersists(t *testing.T) {
	dir := t.TempDir()
	c := freshDisk(t, dir)
	tr, err := c.Get(testRC(1))
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.DiskHits != 0 || s.DiskWrites != 1 || s.DiskErrors != 0 {
		t.Errorf("cold stats = %+v, want 1 miss, 1 disk write", s)
	}
	path := entryPath(t, dir, testRC(1))
	onDisk, err := trace.Load(path)
	if err != nil {
		t.Fatalf("persisted entry unreadable: %v", err)
	}
	if !reflect.DeepEqual(tr.Records, onDisk.Records) {
		t.Error("persisted trace differs from the returned one")
	}
	// No temp files may linger after a successful write.
	matches, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(matches) != 0 {
		t.Errorf("leftover temp files: %v", matches)
	}
}

func TestDiskWarmRestartNeedsZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	warm := freshDisk(t, dir)
	want, err := warm.Get(testRC(1))
	if err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory models a process restart: the
	// memory tier is empty, the disk tier is warm.
	restarted := freshDisk(t, dir)
	got, err := restarted.Get(testRC(1))
	if err != nil {
		t.Fatal(err)
	}
	s := restarted.Stats()
	if s.Misses != 0 || s.DiskHits != 1 {
		t.Errorf("warm stats = %+v, want 0 simulations and 1 disk hit", s)
	}
	if !reflect.DeepEqual(want.Records, got.Records) {
		t.Error("disk-tier trace differs from the simulated one")
	}

	// Second Get in the restarted process is a plain memory hit.
	if _, err := restarted.Get(testRC(1)); err != nil {
		t.Fatal(err)
	}
	if s := restarted.Stats(); s.Hits != 1 || s.DiskHits != 1 {
		t.Errorf("stats after memory hit = %+v, want hits=1 diskhits=1", s)
	}
}

func TestDiskCorruptEntryIsResimulated(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flip":   func(b []byte) []byte { b[len(b)/3] ^= 0xff; return b },
		"empty-file": func(b []byte) []byte { return nil },
		"garbage":    func(b []byte) []byte { return []byte("not a trace at all") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seeded := freshDisk(t, dir)
			want, err := seeded.Get(testRC(3))
			if err != nil {
				t.Fatal(err)
			}
			path := entryPath(t, dir, testRC(3))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			c := freshDisk(t, dir)
			got, err := c.Get(testRC(3))
			if err != nil {
				t.Fatalf("corrupt disk entry must be recovered, got error: %v", err)
			}
			if !reflect.DeepEqual(want.Records, got.Records) {
				t.Error("re-simulated trace differs from the original")
			}
			s := c.Stats()
			if s.DiskErrors != 1 || s.StoreCorruptBlocks != 1 || s.Misses != 1 || s.DiskWrites != 1 {
				t.Errorf("stats = %+v, want 1 disk error, 1 corrupt store entry, 1 re-simulation, 1 re-write", s)
			}
			// The rewritten entry must be healthy again.
			if _, _, err := tracestore.LoadFile(path); err != nil {
				t.Errorf("entry not repaired on disk: %v", err)
			}
		})
	}
}

func TestDiskStoreTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := freshDisk(t, dir)
	want, err := c.Get(testRC(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 1 || s.DiskWrites != 1 {
		t.Errorf("cold stats = %+v, want 1 miss, 1 disk write", s)
	}
	path := entryPath(t, dir, testRC(1))
	if !strings.HasSuffix(path, ".mpts") {
		t.Fatalf("store entry path %q is not a .mpts file", path)
	}
	r, err := tracestore.Open(path)
	if err != nil {
		t.Fatalf("persisted store entry unreadable: %v", err)
	}
	events := r.Events()
	r.Close()
	if events != int64(len(want.Records)) {
		t.Errorf("store entry indexes %d events, trace holds %d", events, len(want.Records))
	}

	// A restart over the same directory serves from the store tier and
	// surfaces the store read statistics.
	restarted := freshDisk(t, dir)
	got, err := restarted.Get(testRC(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Records, got.Records) {
		t.Error("store-tier trace differs from the simulated one")
	}
	s := restarted.Stats()
	if s.Misses != 0 || s.DiskHits != 1 {
		t.Errorf("warm stats = %+v, want 0 simulations and 1 disk hit", s)
	}
	if s.StoreBlocksRead == 0 {
		t.Errorf("warm stats = %+v, want StoreBlocksRead > 0 after a store read", s)
	}
	if !strings.Contains(s.String(), "store-blocks=") {
		t.Errorf("Stats.String() %q is missing the store counters", s.String())
	}
}

func TestDiskStoreCorruptEntryIsResimulated(t *testing.T) {
	dir := t.TempDir()
	seeded := freshDisk(t, dir)
	want, err := seeded.Get(testRC(3))
	if err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, dir, testRC(3))
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), original...)
	raw[len(raw)/3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c := freshDisk(t, dir)
	got, err := c.Get(testRC(3))
	if err != nil {
		t.Fatalf("corrupt store entry must be recovered, got error: %v", err)
	}
	if !reflect.DeepEqual(want.Records, got.Records) {
		t.Error("re-simulated trace differs from the original")
	}
	s := c.Stats()
	if s.DiskErrors != 1 || s.StoreCorruptBlocks != 1 || s.Misses != 1 || s.DiskWrites != 1 {
		t.Errorf("stats = %+v, want 1 disk error, 1 corrupt store block, 1 re-simulation, 1 re-write", s)
	}
	// The rewrite is deterministic: the repaired entry is byte-identical
	// to the one first written.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(original, repaired) {
		t.Errorf("repaired entry (%d bytes) differs from the original (%d bytes)", len(repaired), len(original))
	}
}

func TestDiskEntryForWrongConfigRejected(t *testing.T) {
	// A trace whose header metadata disagrees with the key (e.g. a file
	// copied into the wrong slot) must not be served.
	dir := t.TempDir()
	path := entryPath(t, dir, testRC(1))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	wrong := trace.New("lu", 99)
	wrong.Append(trace.Record{Op: "send"})
	if err := tracestore.SaveTrace(path, wrong); err != nil {
		t.Fatal(err)
	}
	c := freshDisk(t, dir)
	got, err := c.Get(testRC(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "bt" || got.Procs != 4 {
		t.Errorf("served the mismatched disk entry: %s.%d", got.App, got.Procs)
	}
	if s := c.Stats(); s.DiskErrors != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want the mismatch counted and a re-simulation", s)
	}
}

func TestDiskParallelGetsSharedDirRaceClean(t *testing.T) {
	// Many goroutines over several Cache instances sharing one directory:
	// the per-cache singleflight plus atomic file writes must keep this
	// race-clean (run under -race) and every caller must see identical
	// records.
	dir := t.TempDir()
	const caches = 4
	const callersPer = 8
	cs := make([]*Cache, caches)
	for i := range cs {
		cs[i] = freshDisk(t, dir)
	}
	var wg sync.WaitGroup
	results := make([][]trace.Record, caches*callersPer)
	errs := make([]error, caches*callersPer)
	for i := 0; i < caches; i++ {
		for j := 0; j < callersPer; j++ {
			wg.Add(1)
			go func(slot int, c *Cache) {
				defer wg.Done()
				tr, err := c.Get(testRC(5))
				if err != nil {
					errs[slot] = err
					return
				}
				results[slot] = tr.Records
			}(i*callersPer+j, cs[i])
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", slot, err)
		}
	}
	for slot := 1; slot < len(results); slot++ {
		if !reflect.DeepEqual(results[0], results[slot]) {
			t.Fatalf("caller %d saw different records", slot)
		}
	}
	// Across all caches each ran its fill at most once; at least one
	// simulated, the others may have promoted from disk depending on
	// timing, but nobody may have both missed and disk-hit more than once.
	var sims, diskHits int64
	for _, c := range cs {
		s := c.Stats()
		if s.Misses+s.DiskHits != 1 {
			t.Errorf("cache stats %+v: want exactly one fill per cache", s)
		}
		sims += s.Misses
		diskHits += s.DiskHits
	}
	if sims < 1 {
		t.Error("no cache simulated at all")
	}
	if sims+diskHits != caches {
		t.Errorf("fills = %d sims + %d disk hits, want %d total", sims, diskHits, caches)
	}
	// The shared directory holds exactly the one entry (plus no temp junk).
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasPrefix(f.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", f.Name())
		}
	}
	if len(files) != 1 {
		t.Errorf("cache dir holds %d files, want 1", len(files))
	}
}

func TestDiskUnwritableDirDegradesToMemory(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("directory permissions are not enforced for root")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	c := freshDisk(t, dir)
	if _, err := c.Get(testRC(1)); err != nil {
		t.Fatalf("unwritable cache dir must not fail Get: %v", err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.DiskWrites != 0 || s.DiskErrors != 1 {
		t.Errorf("stats = %+v, want simulation to succeed with the write failure counted", s)
	}
	// The memory tier still works.
	if _, err := c.Get(testRC(1)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Errorf("stats = %+v, want a memory hit", s)
	}
}

func TestDiskSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-dead-writer.mpts")
	fresh := filepath.Join(dir, ".tmp-live-writer.mpts")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	c := freshDisk(t, dir)
	if _, err := c.Get(testRC(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived a store")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("recent temp file (a possibly live writer) was swept")
	}
}

func TestMemoryOnlyCacheTouchesNoDisk(t *testing.T) {
	c := New()
	if _, err := c.Get(testRC(1)); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.DiskHits != 0 || s.DiskWrites != 0 || s.DiskErrors != 0 {
		t.Errorf("memory-only cache reported disk activity: %+v", s)
	}
	if c.dir != "" {
		t.Errorf("dir = %q, want empty", c.dir)
	}
}

// TestStorePathPinned pins the disk-tier file name of one fully spelled
// out configuration, so any change to the key encoding (which would turn
// every existing cache directory cold) is a deliberate act.
func TestStorePathPinned(t *testing.T) {
	key, err := KeyFor(workloads.RunConfig{
		Spec: workloads.Spec{Name: "bt", Procs: 4, Iterations: 2},
		Net: simnet.Config{
			LatencyUS: 30, BandwidthBytesPerUS: 100, SendOverheadUS: 15, RecvOverheadUS: 10,
			JitterFrac: 0.05, ImbalanceFrac: 0.03, EagerLimitBytes: 16384, RendezvousExtraUS: 10,
		},
		Seed:           1,
		TraceReceivers: []int{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	const canonical = "mpt1|app=bt|procs=4|iters=2|seed=1|net=30,100,15,10,0.05,0.03,16384,10|recv=3"
	if got := key.canonical(); got != canonical {
		t.Errorf("canonical key = %q, want %q", got, canonical)
	}
	const want = "4514365e81f7e86ae2c6b0000adcf5516add86933400bebc7767b8b041e786b9.mpts"
	if got := StorePath("cache", key); got != filepath.Join("cache", want) {
		t.Errorf("StorePath = %q, want %q", got, filepath.Join("cache", want))
	}
}

func TestKeyCanonicalDistinguishesConfigs(t *testing.T) {
	// Different configurations must land in different files.
	base := testRC(1)
	variants := []workloads.RunConfig{
		testRC(2),
		{Spec: workloads.Spec{Name: "bt", Procs: 4, Iterations: 4}, Net: base.Net, Seed: 1},
		{Spec: workloads.Spec{Name: "bt", Procs: 9, Iterations: 3}, Net: base.Net, Seed: 1},
		{Spec: base.Spec, Seed: 1}, // default (noisy) net vs noiseless
		{Spec: base.Spec, Net: base.Net, Seed: 1, TraceAllReceivers: true},
	}
	dir := t.TempDir()
	seen := map[string]int{entryPath(t, dir, base): 0}
	for i, rc := range variants {
		p := entryPath(t, dir, rc)
		if prev, dup := seen[p]; dup {
			t.Errorf("variant %d collides with %d on %s", i+1, prev, p)
		}
		seen[p] = i + 1
	}
}

func TestStatsStringOmitsZeroStoreCounters(t *testing.T) {
	// A memory-only cache's stats line must not grow store noise.
	var s Stats
	s.Hits = 1
	if str := s.String(); strings.Contains(str, "store-") {
		t.Errorf("zero store counters rendered: %q", str)
	}
	s.StoreBlocksRead = 2
	if str := s.String(); !strings.Contains(str, "store-blocks=2") {
		t.Errorf("nonzero store counters not rendered: %q", str)
	}
}

func TestStatsDeltaSubtractsCountersKeepsGauge(t *testing.T) {
	before := Stats{Hits: 2, Misses: 1, DiskHits: 1, DiskWrites: 1, StoreBlocksRead: 8, Entries: 3}
	after := Stats{Hits: 5, Misses: 4, Coalesced: 2, DiskHits: 3, DiskWrites: 2, DiskErrors: 1,
		StoreBlocksRead: 24, StorePartitionsPruned: 6, StoreCorruptBlocks: 1, Entries: 7}
	d := after.Delta(before)
	want := Stats{Hits: 3, Misses: 3, Coalesced: 2, DiskHits: 2, DiskWrites: 1, DiskErrors: 1,
		StoreBlocksRead: 16, StorePartitionsPruned: 6, StoreCorruptBlocks: 1, Entries: 7}
	if d != want {
		t.Errorf("Delta = %+v, want %+v", d, want)
	}
}
