package tracecache

// The disk tier. A cache constructed with NewDiskStore persists every simulated
// trace as a content-addressed file under its directory and consults that
// directory before simulating, so the evaluation grid survives process
// restarts: a warm cache directory answers a full Table 1 / Figures 3-4 run
// with zero simulator invocations. Files are written atomically (temp file
// + rename into place), which makes concurrent writers from different
// processes safe — the last rename wins and every intermediate state seen
// by readers is either absent or complete. Corrupt or truncated files are
// detected by the store's per-block checksums, counted in Stats.DiskErrors,
// removed and transparently re-simulated.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
)

// storeExt is the filename extension of the disk tier's entries.
const storeExt = ".mpts"

// canonical renders the key as a stable, versioned string; its hash names
// the entry's file. Any change to this encoding (or to the meaning of a
// field) must bump the leading version tag, or stale cache directories
// would serve traces for the wrong configuration. The "mpt1" tag predates
// the store tier and is kept as is, so existing cache directories stay
// warm; TestStorePathPinned holds it fixed.
func (k Key) canonical() string {
	return fmt.Sprintf("mpt1|app=%s|procs=%d|iters=%d|seed=%d|net=%g,%g,%g,%g,%g,%g,%d,%g|recv=%s",
		k.App, k.Procs, k.Iterations, k.Seed,
		k.Net.LatencyUS, k.Net.BandwidthBytesPerUS, k.Net.SendOverheadUS, k.Net.RecvOverheadUS,
		k.Net.JitterFrac, k.Net.ImbalanceFrac, k.Net.EagerLimitBytes, k.Net.RendezvousExtraUS,
		k.Receivers)
}

// StorePath returns the file the entry for k lives in under dir: the
// hex SHA-256 of the key's canonical form plus the store extension.
func StorePath(dir string, k Key) string {
	sum := sha256.Sum256([]byte(k.canonical()))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+storeExt)
}

// loadDisk reads the entry for key from the disk tier. A missing file is
// reported as fs.ErrNotExist; any other error means the file exists but
// cannot be trusted.
func (c *Cache) loadDisk(key Key) (*trace.Trace, error) {
	tr, st, err := tracestore.LoadFile(StorePath(c.dir, key))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.StoreBlocksRead += int64(st.BlocksRead)
	c.stats.StorePartitionsPruned += int64(st.Pruned)
	c.mu.Unlock()
	// The filename is a hash, so a collision or a file copied between
	// incompatible directories would silently serve a wrong trace; the
	// header metadata is enough to reject the realistic mistakes.
	if tr.App != key.App || tr.Procs != key.Procs {
		return nil, fmt.Errorf("tracecache: disk entry holds %s.%d, want %s.%d", tr.App, tr.Procs, key.App, key.Procs)
	}
	return tr, nil
}

// tmpMaxAge is how old an orphaned temp file (from a writer that died
// between CreateTemp and Rename) must be before sweepStaleTemps deletes
// it. Generous enough that no live writer — which holds its temp file for
// the duration of one trace encode — can be swept.
const tmpMaxAge = time.Hour

// sweepStaleTemps opportunistically garbage-collects orphaned temp files
// so long-lived shared cache directories do not accumulate debris. Purely
// best-effort: errors are ignored, and racing sweepers at worst both
// remove the same dead file.
func sweepStaleTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tmpMaxAge)
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// storeDisk atomically persists one entry. Failures are returned for
// accounting but never propagated to Get callers: a read-only or full
// cache directory degrades the cache to memory-only, it does not break
// evaluation.
func (c *Cache) storeDisk(key Key, tr *trace.Trace) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	sweepStaleTemps(c.dir)
	f, err := os.CreateTemp(c.dir, ".tmp-*"+storeExt)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := tracestore.WriteTrace(f, tr); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, StorePath(c.dir, key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// fill produces the trace for one cache entry: disk tier first (when
// configured), then the simulator, persisting fresh results back to disk.
// Exactly one goroutine runs fill per in-flight key (Get's singleflight),
// so the disk tier sees at most one writer per key per process.
func (c *Cache) fill(key Key, run func() (*trace.Trace, error)) (*trace.Trace, error) {
	if c.dir != "" {
		tr, err := c.loadDisk(key)
		switch {
		case err == nil:
			c.bump(&c.stats.DiskHits)
			return tr, nil
		case errors.Is(err, fs.ErrNotExist):
			// cold entry: fall through to the simulator
		default:
			// Corruption and transient read faults are indistinguishable
			// here (the store's ErrCorrupt covers both); dropping the
			// entry and re-simulating is correct for the former and merely
			// wasteful for the rare latter.
			c.bump(&c.stats.DiskErrors)
			c.bump(&c.stats.StoreCorruptBlocks)
			os.Remove(StorePath(c.dir, key)) // drop the corrupt file; best effort
		}
	}
	c.bump(&c.stats.Misses)
	tr, err := run()
	if err == nil && c.dir != "" {
		if werr := c.storeDisk(key, tr); werr == nil {
			c.bump(&c.stats.DiskWrites)
		} else {
			c.bump(&c.stats.DiskErrors)
		}
	}
	return tr, err
}

func (c *Cache) bump(field *int64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}
