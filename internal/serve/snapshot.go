package serve

// This file implements the persistent predictor-state snapshot format
// (".mps"): a magic that pins the file family, a version that readers
// reject when unknown, a tagged item stream, and a CRC-32 trailer that
// detects any truncation or bit flip (DESIGN.md §4).
//
// Layout ("uvarint" and "varint" refer to encoding/binary's unsigned and
// zig-zag varints):
//
//	magic   [4]byte  "MPS\x01"
//	version uvarint  (currently 3)
//	items:  a sequence of tagged items, each introduced by one tag byte
//	  tagSnapSession (0x01): uvarint-length tenant and stream strings,
//	                         varint observed-event count, varint
//	                         last-applied batch sequence, the
//	                         uvarint-length strategy name, then the sender
//	                         and size strategy payloads (uvarint length +
//	                         opaque bytes each, see internal/strategy)
//	  tagSnapEnd     (0x00): uvarint session count, then the trailer
//	trailer [4]byte  little-endian CRC-32 (IEEE) of every byte from the
//	                 magic through the session count inclusive
//
// Each predictor state is framed as (strategy id, opaque payload), which
// is what lets one file checkpoint a daemon serving heterogeneous
// sessions: the reader rebuilds each session through the strategy
// registry without knowing anything about the model inside. The
// per-session last-applied batch sequence number is the state behind the
// observe API's duplicate suppression: a checkpoint that restored
// predictor state but forgot which batches produced it would re-learn
// re-delivered batches after a crash — exactly the corruption idempotent
// retries exist to prevent — so the sequence is part of the durable
// session, written between the observed count and the strategy name.
// Only version 3 is read or written; earlier versions are rejected as
// unsupported.
//
// The file holds no timestamps or other environmental state, and strategy
// payloads are deterministic functions of predictor state, so
// write(read(file)) is byte-identical for current-version files — the
// property the daemon's warm-restart test pins.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"mpipredict/internal/strategy"
)

// snapshotMagic introduces every predictor snapshot file.
var snapshotMagic = [4]byte{'M', 'P', 'S', 0x01}

// SnapshotVersion is the version of the snapshot format, the only one
// ReadSnapshot accepts.
const SnapshotVersion = 3

const (
	tagSnapEnd     = 0x00
	tagSnapSession = 0x01
)

// maxSnapStringLen bounds tenant, stream and strategy names so a corrupt
// length prefix cannot force a huge allocation.
const maxSnapStringLen = 1 << 16

// maxSnapPayloadLen bounds one strategy payload. It comfortably covers
// every registered strategy's worst case (the dpd window and the markov1
// transition table are both far below it).
const maxSnapPayloadLen = 1 << 24

// ErrCorruptSnapshot is wrapped by every snapshot decoding error:
// malformed, truncated or bit-flipped input, unknown versions, and state
// that fails strategy validation.
var ErrCorruptSnapshot = errors.New("corrupt predictor snapshot")

var snapCRCTable = crc32.MakeTable(crc32.IEEE)

func snapCorruptf(format string, args ...interface{}) error {
	return fmt.Errorf("serve: %w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// SessionSnapshot is one session's persistent state: its key, how many
// events it has observed, the last applied batch sequence number (the
// duplicate-suppression watermark), the strategy it runs, and the opaque
// strategy-defined payloads of both stream predictors
// (strategy.Strategy.Snapshot bytes).
type SessionSnapshot struct {
	Tenant   string
	Stream   string
	Observed int64
	LastSeq  int64
	Strategy string
	Sender   []byte
	Size     []byte
}

// snapWriter is the snapshot encoder: buffered, CRC over every byte,
// first error sticks.
type snapWriter struct {
	bw  *bufio.Writer
	crc uint32
	buf [binary.MaxVarintLen64]byte
	err error
}

func (w *snapWriter) write(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, snapCRCTable, p)
	_, w.err = w.bw.Write(p)
}

func (w *snapWriter) writeByte(b byte) { w.write([]byte{b}) }

func (w *snapWriter) writeUvarint(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.write(w.buf[:n])
}

func (w *snapWriter) writeVarint(v int64) {
	n := binary.PutVarint(w.buf[:], v)
	w.write(w.buf[:n])
}

func (w *snapWriter) writeString(s string) {
	if len(s) > maxSnapStringLen {
		w.err = fmt.Errorf("serve: string of %d bytes exceeds the snapshot format limit %d", len(s), maxSnapStringLen)
		return
	}
	w.writeUvarint(uint64(len(s)))
	w.write([]byte(s))
}

func (w *snapWriter) writePayload(p []byte) {
	if len(p) > maxSnapPayloadLen {
		w.err = fmt.Errorf("serve: strategy payload of %d bytes exceeds the snapshot format limit %d", len(p), maxSnapPayloadLen)
		return
	}
	w.writeUvarint(uint64(len(p)))
	w.write(p)
}

// WriteSnapshot writes the sessions to w in the snapshot format. Callers
// that need the deterministic file contract must pass sessions in a
// stable order; Registry.SnapshotSessions already sorts by key.
func WriteSnapshot(w io.Writer, sessions []SessionSnapshot) error {
	sw := &snapWriter{bw: bufio.NewWriter(w)}
	sw.write(snapshotMagic[:])
	sw.writeUvarint(SnapshotVersion)
	for i := range sessions {
		s := &sessions[i]
		// Mirror the reader's validation: writing a file the reader would
		// reject as corrupt helps nobody.
		if s.Tenant == "" || s.Stream == "" {
			return fmt.Errorf("serve: session %d has an empty key %q/%q", i, s.Tenant, s.Stream)
		}
		if !strategy.Known(s.Strategy) {
			return fmt.Errorf("serve: session %q/%q uses unregistered strategy %q", s.Tenant, s.Stream, s.Strategy)
		}
		if s.LastSeq < 0 {
			return fmt.Errorf("serve: session %q/%q has a negative batch sequence %d", s.Tenant, s.Stream, s.LastSeq)
		}
		sw.writeByte(tagSnapSession)
		sw.writeString(s.Tenant)
		sw.writeString(s.Stream)
		sw.writeVarint(s.Observed)
		sw.writeVarint(s.LastSeq)
		sw.writeString(s.Strategy)
		sw.writePayload(s.Sender)
		sw.writePayload(s.Size)
	}
	sw.writeByte(tagSnapEnd)
	sw.writeUvarint(uint64(len(sessions)))
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sw.crc)
	if sw.err == nil {
		if _, err := sw.bw.Write(trailer[:]); err != nil {
			sw.err = err
		}
	}
	if sw.err != nil {
		return sw.err
	}
	return sw.bw.Flush()
}

// snapReader is the snapshot decoder, keeping the CRC in sync with every
// byte consumed.
type snapReader struct {
	br  *bufio.Reader
	crc uint32
}

// ReadByte satisfies io.ByteReader for binary.ReadUvarint.
func (r *snapReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, err
	}
	r.crc = crc32.Update(r.crc, snapCRCTable, []byte{b})
	return b, nil
}

func (r *snapReader) readFull(p []byte) error {
	if _, err := io.ReadFull(r.br, p); err != nil {
		return err
	}
	r.crc = crc32.Update(r.crc, snapCRCTable, p)
	return nil
}

func (r *snapReader) readUvarint() (uint64, error) { return binary.ReadUvarint(r) }

func (r *snapReader) readVarint() (int64, error) { return binary.ReadVarint(r) }

func (r *snapReader) readString() (string, error) {
	n, err := r.readUvarint()
	if err != nil {
		return "", err
	}
	if n > maxSnapStringLen {
		return "", fmt.Errorf("string length %d exceeds the format limit %d", n, maxSnapStringLen)
	}
	buf := make([]byte, n)
	if err := r.readFull(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (r *snapReader) readPayload() ([]byte, error) {
	n, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSnapPayloadLen {
		return nil, fmt.Errorf("strategy payload length %d exceeds the format limit %d", n, maxSnapPayloadLen)
	}
	buf := make([]byte, n)
	if err := r.readFull(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadSnapshot reads a complete snapshot previously written by
// WriteSnapshot. Beyond the structural checks (magic, version, tags,
// session count, CRC) every strategy payload is
// validated by a trial restore through the strategy registry, so a
// snapshot that decodes but cannot produce a working predictor is rejected
// here, not at serving time. Trailing bytes after the trailer are
// rejected: for a file they mean a botched concatenation or a partial
// overwrite.
func ReadSnapshot(r io.Reader) ([]SessionSnapshot, error) {
	sr := &snapReader{br: bufio.NewReader(r)}
	var magic [4]byte
	if err := sr.readFull(magic[:]); err != nil {
		return nil, snapCorruptf("reading magic: %v", err)
	}
	if magic != snapshotMagic {
		return nil, snapCorruptf("bad magic %q", magic[:])
	}
	version, err := sr.readUvarint()
	if err != nil {
		return nil, snapCorruptf("reading version: %v", err)
	}
	if version != SnapshotVersion {
		return nil, snapCorruptf("unsupported version %d (have %d)", version, SnapshotVersion)
	}
	var sessions []SessionSnapshot
	seen := make(map[sessionKey]bool)
	for {
		tag, err := sr.ReadByte()
		if err != nil {
			return nil, snapCorruptf("reading item tag: %v", err)
		}
		switch tag {
		case tagSnapSession:
			snap, err := readSession(sr)
			if err != nil {
				return nil, err
			}
			key := sessionKey{snap.Tenant, snap.Stream}
			if seen[key] {
				return nil, snapCorruptf("duplicate session %q/%q", snap.Tenant, snap.Stream)
			}
			seen[key] = true
			sessions = append(sessions, snap)
		case tagSnapEnd:
			count, err := sr.readUvarint()
			if err != nil {
				return nil, snapCorruptf("reading session count: %v", err)
			}
			if count != uint64(len(sessions)) {
				return nil, snapCorruptf("session count %d does not match %d sessions read", count, len(sessions))
			}
			want := sr.crc
			var trailer [4]byte
			if _, err := io.ReadFull(sr.br, trailer[:]); err != nil {
				return nil, snapCorruptf("reading checksum: %v", err)
			}
			if got := binary.LittleEndian.Uint32(trailer[:]); got != want {
				return nil, snapCorruptf("checksum mismatch: file says %08x, content hashes to %08x", got, want)
			}
			if _, err := sr.br.ReadByte(); err != io.EOF {
				return nil, snapCorruptf("trailing data after the snapshot trailer")
			}
			return sessions, nil
		default:
			return nil, snapCorruptf("unknown item tag 0x%02x", tag)
		}
	}
}

func readSession(sr *snapReader) (SessionSnapshot, error) {
	var snap SessionSnapshot
	var err error
	if snap.Tenant, err = sr.readString(); err != nil {
		return snap, snapCorruptf("reading tenant: %v", err)
	}
	if snap.Stream, err = sr.readString(); err != nil {
		return snap, snapCorruptf("reading stream: %v", err)
	}
	if snap.Tenant == "" || snap.Stream == "" {
		return snap, snapCorruptf("empty session key %q/%q", snap.Tenant, snap.Stream)
	}
	if snap.Observed, err = sr.readVarint(); err != nil {
		return snap, snapCorruptf("reading observed count: %v", err)
	}
	if snap.Observed < 0 {
		return snap, snapCorruptf("negative observed count %d", snap.Observed)
	}
	if snap.LastSeq, err = sr.readVarint(); err != nil {
		return snap, snapCorruptf("reading batch sequence of %q/%q: %v", snap.Tenant, snap.Stream, err)
	}
	if snap.LastSeq < 0 {
		return snap, snapCorruptf("negative batch sequence %d of %q/%q", snap.LastSeq, snap.Tenant, snap.Stream)
	}
	if snap.Strategy, err = sr.readString(); err != nil {
		return snap, snapCorruptf("reading strategy of %q/%q: %v", snap.Tenant, snap.Stream, err)
	}
	if !strategy.Known(snap.Strategy) {
		return snap, snapCorruptf("session %q/%q uses unknown strategy %q (known: %v)",
			snap.Tenant, snap.Stream, snap.Strategy, strategy.Names())
	}
	if snap.Sender, err = sr.readPayload(); err != nil {
		return snap, snapCorruptf("reading sender state of %q/%q: %v", snap.Tenant, snap.Stream, err)
	}
	if snap.Size, err = sr.readPayload(); err != nil {
		return snap, snapCorruptf("reading size state of %q/%q: %v", snap.Tenant, snap.Stream, err)
	}
	// A trial restore applies the full strategy validation surface, so no
	// structurally valid but semantically corrupt state survives loading.
	if _, err := strategy.Restore(snap.Strategy, snap.Sender); err != nil {
		return snap, snapCorruptf("sender state of %q/%q: %v", snap.Tenant, snap.Stream, err)
	}
	if _, err := strategy.Restore(snap.Strategy, snap.Size); err != nil {
		return snap, snapCorruptf("size state of %q/%q: %v", snap.Tenant, snap.Stream, err)
	}
	return snap, nil
}

// SaveSnapshotFile writes the sessions to the named file, creating or
// replacing it. The write is atomic (temp file in the same directory +
// rename), so a failure partway — full disk, killed daemon — never leaves
// a truncated snapshot behind or clobbers the previous good checkpoint.
func SaveSnapshotFile(path string, sessions []SessionSnapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("serve: creating temp file in %s: %w", dir, err)
	}
	tmp := f.Name()
	if err := WriteSnapshot(f, sessions); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Unlike cache and trace exports (re-derivable by re-simulating), a
	// snapshot is the only copy of state learned from live traffic, so the
	// data must be durable before the rename can clobber the previous good
	// checkpoint — without the fsync, a power loss after the rename could
	// leave an empty file the daemon then refuses to boot from.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: replacing %s: %w", path, err)
	}
	return nil
}

// LoadSnapshotFile reads a snapshot from the named file.
func LoadSnapshotFile(path string) ([]SessionSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening %s: %w", path, err)
	}
	defer f.Close()
	sessions, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("serve: reading %s: %w", path, err)
	}
	return sessions, nil
}
