// Package tracestore implements the partitioned columnar on-disk trace
// store (".mpts"), the repository's one binary trace format, and its
// parallel scan engine. Instead of a row-by-row record stream, which must
// be decoded in full to answer any question, the store splits the event
// stream into fixed-size partitions (row groups) and stores every record
// field as its own compressed, checksummed block, so analytical scans
// read only the columns they project and only the partitions the footer
// index says overlap the query — million-event analytics in bounded
// memory, fanned over a bounded worker pool (scan.go). Sequential replays
// read the same file record by record through trace.Open (source.go).
//
// Layout (all multi-byte integers are varints in the encoding of
// encoding/binary; "uvarint" and "varint" refer to binary.PutUvarint and
// binary.PutVarint respectively):
//
//	header:
//	  magic    [4]byte "MPTS"
//	  version  uvarint (currently 1)
//	  app      uvarint length + UTF-8 bytes
//	  procs    varint
//	  crc      [4]byte little-endian CRC-32 (IEEE) of every header byte
//	           before it
//	partitions: row groups of PartitionEvents events each (the last may be
//	short), written back to back. Each partition is numColumns blocks in
//	Column order:
//	  block:   uvarint payload length | payload | [4]byte little-endian
//	           CRC-32 (IEEE) of the length prefix and the payload
//	column payloads (delta baselines reset at every partition boundary, so
//	each block decodes standalone — the property projection and pruning
//	rely on):
//	  time     varint delta of the IEEE-754 bits vs the previous event
//	  receiver varint delta vs the previous event
//	  sender   varint (zig-zag)
//	  size     varint (zig-zag)
//	  tag      varint
//	  kind     varint
//	  level    varint
//	  op       uvarint index into the footer dictionary
//	footer (one payload, CRC-trailed via the tail):
//	  uvarint partition count
//	  per partition: uvarint absolute file offset | uvarint event count |
//	    uvarint min-time bits | uvarint max-time bits |
//	    numColumns × uvarint framed block length
//	  uvarint dictionary size, then uvarint length + bytes per op name
//	  uvarint total event count
//	tail (the last 16 bytes of the file):
//	  [8]byte little-endian footer payload length
//	  [4]byte little-endian CRC-32 (IEEE) of the footer payload
//	  [4]byte tail magic "STPM"
//
// Readers locate the footer from the tail, so the format is written in
// one forward pass (no seeking) and read with the index first. Every byte
// of the file is covered by a checksum (header CRC, per-block CRC, footer
// CRC) or validated against a checksummed structure (the tail fields, the
// block length prefixes cross-checked against the footer), so any
// truncation or bit flip is rejected with an error wrapping ErrCorrupt.
//
// Records do not carry Seq numbers; they are reassigned on decode from
// stream order. Compatibility policy (DESIGN.md §3): the magic pins the
// file family, the version is bumped on any incompatible change, and
// readers reject versions they do not know.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"mpipredict/internal/trace"
)

// storeMagic introduces every columnar trace store file.
var storeMagic = [4]byte{'M', 'P', 'T', 'S'}

// tailMagic closes every store file; readers find the footer through it.
var tailMagic = [4]byte{'S', 'T', 'P', 'M'}

// StoreVersion is the current version of the store format.
const StoreVersion = 1

// PartitionEvents is the default row-group size: large enough that
// per-partition framing and footer entries are noise, small enough that a
// scan worker's decoded partition stays cache- and memory-friendly and a
// million-event trace yields enough partitions to keep a pool busy.
const PartitionEvents = 16384

// tailLen is the fixed size of the file tail.
const tailLen = 16

// Decoding limits: a corrupt or adversarial length field must never force
// a huge allocation before its checksum is verified.
const (
	maxStringLen      = 1 << 16
	maxPartitionEvts  = 1 << 26
	maxBlockLen       = 1 << 30
	maxFooterLen      = 1 << 28
	maxPartitionCount = 1 << 24
	maxDictEntries    = 1 << 20
)

// ErrCorrupt is wrapped by every decoding error: malformed, truncated or
// bit-flipped input, and read failures from the underlying reader (the
// two are indistinguishable mid-decode).
var ErrCorrupt = errors.New("corrupt trace store")

var crcTable = crc32.MakeTable(crc32.IEEE)

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("tracestore: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Column identifies one stored record field. The numeric values are the
// on-disk block order within a partition and must not be reordered.
type Column uint8

const (
	ColTime Column = iota
	ColReceiver
	ColSender
	ColSize
	ColTag
	ColKind
	ColLevel
	ColOp

	numColumns
)

// String returns the column name used in documentation and errors.
func (c Column) String() string {
	switch c {
	case ColTime:
		return "time"
	case ColReceiver:
		return "receiver"
	case ColSender:
		return "sender"
	case ColSize:
		return "size"
	case ColTag:
		return "tag"
	case ColKind:
		return "kind"
	case ColLevel:
		return "level"
	case ColOp:
		return "op"
	default:
		return fmt.Sprintf("column(%d)", int(c))
	}
}

// ColumnSet is a projection: the set of columns a scan decodes. The zero
// set means "every column" at the Query level; Cols builds explicit sets.
type ColumnSet uint16

// AllColumns selects every stored column.
const AllColumns ColumnSet = 1<<numColumns - 1

// Cols returns the set containing exactly the given columns.
func Cols(cols ...Column) ColumnSet {
	var s ColumnSet
	for _, c := range cols {
		s |= 1 << c
	}
	return s
}

// Has reports whether the set contains c.
func (s ColumnSet) Has(c Column) bool { return s&(1<<c) != 0 }

// partMeta is one footer index entry.
type partMeta struct {
	off     uint64 // absolute file offset of the partition's first block
	events  int
	minTime float64
	maxTime float64
	colLen  [numColumns]uint64 // framed length of each column block
}

func (pm *partMeta) totalLen() uint64 {
	var n uint64
	for _, l := range pm.colLen {
		n += l
	}
	return n
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// Writer streams an event sequence into the store format in one forward
// pass: records accumulate in per-column buffers and are flushed as a
// partition every PartitionEvents records; Close flushes the last partial
// partition, the footer and the tail. It implements the record-writer
// contract of stream.SinkTo, so the block pipeline exports stores the
// same way it exports JSONL.
type Writer struct {
	w          io.Writer
	off        uint64
	app        string
	procs      int
	partEvents int

	cols    [numColumns][]byte
	n       int
	minTime float64
	maxTime float64
	prevT   uint64
	prevRcv int64

	dict      map[string]uint64
	dictNames []string

	parts  []partMeta
	total  uint64
	closed bool
	err    error
}

// NewWriter writes the file header for a trace with the given metadata
// and returns a Writer with the default partition size. The writer does
// not buffer beyond the open partition, so the underlying writer should
// be buffered for small writes (files created by SaveTrace and the CLIs
// are).
func NewWriter(w io.Writer, app string, procs int) (*Writer, error) {
	return NewWriterPartitioned(w, app, procs, PartitionEvents)
}

// NewWriterPartitioned is NewWriter with an explicit row-group size;
// tests use tiny partitions to exercise multi-partition files cheaply.
func NewWriterPartitioned(w io.Writer, app string, procs, partitionEvents int) (*Writer, error) {
	if partitionEvents < 1 || partitionEvents > maxPartitionEvts {
		return nil, fmt.Errorf("tracestore: partition size %d outside [1, %d]", partitionEvents, maxPartitionEvts)
	}
	if len(app) > maxStringLen {
		return nil, fmt.Errorf("tracestore: app name of %d bytes exceeds the format limit %d", len(app), maxStringLen)
	}
	sw := &Writer{w: w, app: app, procs: procs, partEvents: partitionEvents, dict: make(map[string]uint64)}
	hdr := append([]byte(nil), storeMagic[:]...)
	hdr = appendUvarint(hdr, StoreVersion)
	hdr = appendUvarint(hdr, uint64(len(app)))
	hdr = append(hdr, app...)
	hdr = appendVarint(hdr, int64(procs))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(hdr, crcTable))
	hdr = append(hdr, crc[:]...)
	sw.write(hdr)
	if sw.err != nil {
		return nil, sw.err
	}
	return sw, nil
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
	w.off += uint64(len(p))
}

// WriteRecord appends one record to the open partition. The record's Seq
// is not stored; decode order reproduces it.
func (w *Writer) WriteRecord(r trace.Record) error {
	if w.closed {
		return errors.New("tracestore: writer already closed")
	}
	if w.err != nil {
		return w.err
	}
	bits := math.Float64bits(r.Time)
	w.cols[ColTime] = appendVarint(w.cols[ColTime], int64(bits-w.prevT))
	w.prevT = bits
	w.cols[ColReceiver] = appendVarint(w.cols[ColReceiver], int64(r.Receiver)-w.prevRcv)
	w.prevRcv = int64(r.Receiver)
	w.cols[ColSender] = appendVarint(w.cols[ColSender], int64(r.Sender))
	w.cols[ColSize] = appendVarint(w.cols[ColSize], r.Size)
	w.cols[ColTag] = appendVarint(w.cols[ColTag], int64(r.Tag))
	w.cols[ColKind] = appendVarint(w.cols[ColKind], int64(r.Kind))
	w.cols[ColLevel] = appendVarint(w.cols[ColLevel], int64(r.Level))
	idx, ok := w.dict[r.Op]
	if !ok {
		if len(r.Op) > maxStringLen {
			w.err = fmt.Errorf("tracestore: op name of %d bytes exceeds the format limit %d", len(r.Op), maxStringLen)
			return w.err
		}
		idx = uint64(len(w.dictNames))
		w.dict[r.Op] = idx
		w.dictNames = append(w.dictNames, r.Op)
	}
	w.cols[ColOp] = appendUvarint(w.cols[ColOp], idx)
	if w.n == 0 {
		w.minTime, w.maxTime = r.Time, r.Time
	} else {
		if r.Time < w.minTime {
			w.minTime = r.Time
		}
		if r.Time > w.maxTime {
			w.maxTime = r.Time
		}
	}
	w.n++
	w.total++
	if w.n >= w.partEvents {
		w.flushPartition()
	}
	return w.err
}

// flushPartition frames and writes the buffered column blocks and records
// the footer entry. Delta baselines reset so the next partition's blocks
// decode standalone.
func (w *Writer) flushPartition() {
	pm := partMeta{off: w.off, events: w.n, minTime: w.minTime, maxTime: w.maxTime}
	var lenBuf [binary.MaxVarintLen64]byte
	var crcBuf [4]byte
	for c := Column(0); c < numColumns; c++ {
		payload := w.cols[c]
		ln := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
		crc := crc32.Update(0, crcTable, lenBuf[:ln])
		crc = crc32.Update(crc, crcTable, payload)
		binary.LittleEndian.PutUint32(crcBuf[:], crc)
		w.write(lenBuf[:ln])
		w.write(payload)
		w.write(crcBuf[:])
		pm.colLen[c] = uint64(ln+len(payload)) + 4
		w.cols[c] = payload[:0]
	}
	w.parts = append(w.parts, pm)
	w.n = 0
	w.prevT = 0
	w.prevRcv = 0
}

// Close flushes the last partition, the footer index and the tail. It
// does not close the underlying writer. The Writer must not be used
// afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return errors.New("tracestore: writer already closed")
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if w.n > 0 {
		w.flushPartition()
	}
	footer := appendUvarint(nil, uint64(len(w.parts)))
	for i := range w.parts {
		pm := &w.parts[i]
		footer = appendUvarint(footer, pm.off)
		footer = appendUvarint(footer, uint64(pm.events))
		footer = appendUvarint(footer, math.Float64bits(pm.minTime))
		footer = appendUvarint(footer, math.Float64bits(pm.maxTime))
		for c := Column(0); c < numColumns; c++ {
			footer = appendUvarint(footer, pm.colLen[c])
		}
	}
	footer = appendUvarint(footer, uint64(len(w.dictNames)))
	for _, name := range w.dictNames {
		footer = appendUvarint(footer, uint64(len(name)))
		footer = append(footer, name...)
	}
	footer = appendUvarint(footer, w.total)
	w.write(footer)
	var tail [tailLen]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(len(footer)))
	binary.LittleEndian.PutUint32(tail[8:12], crc32.Checksum(footer, crcTable))
	copy(tail[12:16], tailMagic[:])
	w.write(tail[:])
	return w.err
}

// Reader is an open store file: the parsed header, footer index and op
// dictionary, plus the random-access handle the scan workers read blocks
// through. A Reader is safe for concurrent use — ReadPartition and Scan
// only issue ReadAt calls against the shared handle.
type Reader struct {
	r         io.ReaderAt
	closer    io.Closer
	size      int64
	app       string
	procs     int
	dataStart uint64
	parts     []partMeta
	dict      []string
	events    int64
}

// Open opens the named store file. The caller must Close it.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracestore: opening %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: opening %s: %w", path, err)
	}
	r, err := NewReader(f, info.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: reading %s: %w", path, err)
	}
	r.closer = f
	return r, nil
}

// NewReader parses the header, tail and footer of a store held by an
// io.ReaderAt of the given size and returns a Reader positioned for
// partition reads. It validates every structural invariant up front —
// checksums, bounds, partition contiguity — so later block reads only
// need to verify the blocks themselves.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	sr := &Reader{r: r, size: size}
	if err := sr.readHeader(); err != nil {
		return nil, err
	}
	if err := sr.readFooter(); err != nil {
		return nil, err
	}
	return sr, nil
}

// readAt wraps ReadAt for full-buffer reads. The io.ReaderAt contract
// permits a conforming implementation to return (len(p), io.EOF) when
// the read ends exactly at end of input — the tail read always does —
// so a full read is a success regardless of the error value.
func (r *Reader) readAt(buf []byte, off int64) error {
	n, err := r.r.ReadAt(buf, off)
	if err == io.EOF && n == len(buf) {
		return nil
	}
	return err
}

func (r *Reader) readHeader() error {
	// The header is variable length (the app name); read the maximum it
	// can occupy, bounded by the file size.
	maxHdr := int64(4 + binary.MaxVarintLen64 + binary.MaxVarintLen64 + maxStringLen + binary.MaxVarintLen64 + 4)
	if maxHdr > r.size {
		maxHdr = r.size
	}
	buf := make([]byte, maxHdr)
	if err := r.readAt(buf, 0); err != nil {
		return corruptf("reading header: %v", err)
	}
	if len(buf) < 4 || [4]byte(buf[:4]) != storeMagic {
		return corruptf("bad magic (not a columnar trace store)")
	}
	pos := 4
	version, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return corruptf("reading version")
	}
	pos += n
	if version != StoreVersion {
		return corruptf("unsupported version %d (have %d)", version, StoreVersion)
	}
	appLen, n := binary.Uvarint(buf[pos:])
	if n <= 0 || appLen > maxStringLen {
		return corruptf("reading app name length")
	}
	pos += n
	if uint64(len(buf)-pos) < appLen {
		return corruptf("app name truncated")
	}
	r.app = string(buf[pos : pos+int(appLen)])
	pos += int(appLen)
	procs, n := binary.Varint(buf[pos:])
	if n <= 0 {
		return corruptf("reading procs")
	}
	pos += n
	r.procs = int(procs)
	if len(buf)-pos < 4 {
		return corruptf("header checksum truncated")
	}
	want := binary.LittleEndian.Uint32(buf[pos : pos+4])
	if got := crc32.Checksum(buf[:pos], crcTable); got != want {
		return corruptf("header checksum mismatch: file says %08x, content hashes to %08x", want, got)
	}
	r.dataStart = uint64(pos) + 4
	return nil
}

func (r *Reader) readFooter() error {
	if uint64(r.size) < r.dataStart+tailLen {
		return corruptf("file too short for a tail")
	}
	var tail [tailLen]byte
	if err := r.readAt(tail[:], r.size-tailLen); err != nil {
		return corruptf("reading tail: %v", err)
	}
	if [4]byte(tail[12:16]) != tailMagic {
		return corruptf("bad tail magic")
	}
	footerLen := binary.LittleEndian.Uint64(tail[0:8])
	if footerLen > maxFooterLen || footerLen > uint64(r.size)-tailLen-r.dataStart {
		return corruptf("footer length %d out of bounds", footerLen)
	}
	footerStart := uint64(r.size) - tailLen - footerLen
	footer := make([]byte, footerLen)
	if err := r.readAt(footer, int64(footerStart)); err != nil {
		return corruptf("reading footer: %v", err)
	}
	want := binary.LittleEndian.Uint32(tail[8:12])
	if got := crc32.Checksum(footer, crcTable); got != want {
		return corruptf("footer checksum mismatch: file says %08x, content hashes to %08x", want, got)
	}

	pos := 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(footer[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	count, ok := next()
	if !ok || count > maxPartitionCount {
		return corruptf("reading partition count")
	}
	parts := make([]partMeta, count)
	expected := r.dataStart
	var total uint64
	for i := range parts {
		pm := &parts[i]
		off, ok1 := next()
		events, ok2 := next()
		minBits, ok3 := next()
		maxBits, ok4 := next()
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return corruptf("reading partition %d index entry", i)
		}
		if events == 0 || events > maxPartitionEvts {
			return corruptf("partition %d event count %d out of bounds", i, events)
		}
		if off != expected {
			return corruptf("partition %d offset %d does not follow the previous partition (want %d)", i, off, expected)
		}
		pm.off = off
		pm.events = int(events)
		pm.minTime = math.Float64frombits(minBits)
		pm.maxTime = math.Float64frombits(maxBits)
		for c := Column(0); c < numColumns; c++ {
			l, ok := next()
			if !ok {
				return corruptf("reading partition %d column lengths", i)
			}
			// The smallest legal block is an empty payload: one length
			// byte plus the four checksum bytes.
			if l < 5 || l > maxBlockLen {
				return corruptf("partition %d %s block length %d out of bounds", i, c, l)
			}
			pm.colLen[c] = l
		}
		expected += pm.totalLen()
		total += events
	}
	if expected != footerStart {
		return corruptf("partition data ends at %d, footer starts at %d", expected, footerStart)
	}
	dictCount, ok := next()
	if !ok || dictCount > maxDictEntries {
		return corruptf("reading dictionary size")
	}
	dict := make([]string, dictCount)
	for i := range dict {
		l, ok := next()
		if !ok || l > maxStringLen {
			return corruptf("reading dictionary entry %d length", i)
		}
		if uint64(len(footer)-pos) < l {
			return corruptf("dictionary entry %d truncated", i)
		}
		dict[i] = string(footer[pos : pos+int(l)])
		pos += int(l)
	}
	totalEvents, ok := next()
	if !ok || totalEvents != total {
		return corruptf("total event count %d does not match the %d indexed events", totalEvents, total)
	}
	if pos != len(footer) {
		return corruptf("%d trailing bytes after the footer payload", len(footer)-pos)
	}
	r.parts = parts
	r.dict = dict
	r.events = int64(total)
	return nil
}

// App returns the workload name from the header.
func (r *Reader) App() string { return r.app }

// Procs returns the rank count from the header.
func (r *Reader) Procs() int { return r.procs }

// Partitions returns the number of row groups in the store.
func (r *Reader) Partitions() int { return len(r.parts) }

// Events returns the total number of events in the store.
func (r *Reader) Events() int64 { return r.events }

// TimeBounds returns the minimum and maximum event time across every
// partition, from the footer index alone. ok is false for an empty store.
func (r *Reader) TimeBounds() (min, max float64, ok bool) {
	for i := range r.parts {
		pm := &r.parts[i]
		if !ok {
			min, max, ok = pm.minTime, pm.maxTime, true
			continue
		}
		if pm.minTime < min {
			min = pm.minTime
		}
		if pm.maxTime > max {
			max = pm.maxTime
		}
	}
	return min, max, ok
}

// Close closes the underlying file when the Reader owns one (Open);
// Readers over plain byte slices have nothing to close.
func (r *Reader) Close() error {
	if r.closer == nil {
		return nil
	}
	return r.closer.Close()
}

// PartitionData is one decoded row group. Only projected columns are
// filled; the rest keep length zero. The backing arrays (and the raw
// block scratch) are reused across ReadPartition calls on the same
// struct, so a scan worker decodes blocks with zero steady-state
// allocations. Op strings alias the reader's dictionary.
type PartitionData struct {
	Index  int
	Events int

	Time     []float64
	Receiver []int
	Sender   []int64
	Size     []int64
	Tag      []int
	Kind     []trace.Kind
	Level    []trace.Level
	Op       []string

	raw []byte
}

// Record reassembles event i as a trace.Record (Seq zero). It requires
// the partition to have been read with AllColumns.
func (pd *PartitionData) Record(i int) trace.Record {
	return trace.Record{
		Time:     pd.Time[i],
		Receiver: pd.Receiver[i],
		Sender:   int(pd.Sender[i]),
		Size:     pd.Size[i],
		Tag:      pd.Tag[i],
		Kind:     pd.Kind[i],
		Level:    pd.Level[i],
		Op:       pd.Op[i],
	}
}

func (pd *PartitionData) reset() {
	pd.Time = pd.Time[:0]
	pd.Receiver = pd.Receiver[:0]
	pd.Sender = pd.Sender[:0]
	pd.Size = pd.Size[:0]
	pd.Tag = pd.Tag[:0]
	pd.Kind = pd.Kind[:0]
	pd.Level = pd.Level[:0]
	pd.Op = pd.Op[:0]
}

// ReadPartition decodes the projected columns of partition i into pd,
// reusing pd's backing arrays. Every read block's checksum and framing
// are verified against the footer index before its payload is decoded.
func (r *Reader) ReadPartition(i int, cols ColumnSet, pd *PartitionData) error {
	if i < 0 || i >= len(r.parts) {
		return fmt.Errorf("tracestore: partition %d outside [0, %d)", i, len(r.parts))
	}
	if cols == 0 {
		cols = AllColumns
	}
	pm := &r.parts[i]
	pd.Index = i
	pd.Events = pm.events
	pd.reset()
	off := pm.off
	for c := Column(0); c < numColumns; c++ {
		l := pm.colLen[c]
		if cols.Has(c) {
			if uint64(cap(pd.raw)) < l {
				pd.raw = make([]byte, l)
			}
			raw := pd.raw[:l]
			if err := r.readAt(raw, int64(off)); err != nil {
				return corruptf("partition %d: reading %s block: %v", i, c, err)
			}
			if err := decodeBlock(c, raw, pm.events, r.dict, pd); err != nil {
				return fmt.Errorf("partition %d: %w", i, err)
			}
		}
		off += l
	}
	return nil
}

// decodeBlock verifies one framed column block and decodes its payload
// into the matching pd column.
func decodeBlock(c Column, raw []byte, events int, dict []string, pd *PartitionData) error {
	payloadLen, n := binary.Uvarint(raw)
	if n <= 0 {
		return corruptf("%s block: malformed length prefix", c)
	}
	if uint64(n)+payloadLen+4 != uint64(len(raw)) {
		return corruptf("%s block: length prefix %d does not match the indexed block size %d", c, payloadLen, len(raw))
	}
	body := raw[:uint64(n)+payloadLen]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return corruptf("%s block: checksum mismatch: file says %08x, content hashes to %08x", c, want, got)
	}
	p := body[n:]
	pos := 0
	nextV := func() (int64, bool) {
		v, n := binary.Varint(p[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	nextU := func() (uint64, bool) {
		v, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	switch c {
	case ColTime:
		prev := uint64(0)
		for k := 0; k < events; k++ {
			d, ok := nextV()
			if !ok {
				return corruptf("time block: truncated at event %d", k)
			}
			prev += uint64(d)
			pd.Time = append(pd.Time, math.Float64frombits(prev))
		}
	case ColReceiver:
		prev := int64(0)
		for k := 0; k < events; k++ {
			d, ok := nextV()
			if !ok {
				return corruptf("receiver block: truncated at event %d", k)
			}
			prev += d
			pd.Receiver = append(pd.Receiver, int(prev))
		}
	case ColSender:
		for k := 0; k < events; k++ {
			v, ok := nextV()
			if !ok {
				return corruptf("sender block: truncated at event %d", k)
			}
			pd.Sender = append(pd.Sender, v)
		}
	case ColSize:
		for k := 0; k < events; k++ {
			v, ok := nextV()
			if !ok {
				return corruptf("size block: truncated at event %d", k)
			}
			pd.Size = append(pd.Size, v)
		}
	case ColTag:
		for k := 0; k < events; k++ {
			v, ok := nextV()
			if !ok {
				return corruptf("tag block: truncated at event %d", k)
			}
			pd.Tag = append(pd.Tag, int(v))
		}
	case ColKind:
		for k := 0; k < events; k++ {
			v, ok := nextV()
			if !ok {
				return corruptf("kind block: truncated at event %d", k)
			}
			pd.Kind = append(pd.Kind, trace.Kind(v))
		}
	case ColLevel:
		for k := 0; k < events; k++ {
			v, ok := nextV()
			if !ok {
				return corruptf("level block: truncated at event %d", k)
			}
			pd.Level = append(pd.Level, trace.Level(v))
		}
	case ColOp:
		for k := 0; k < events; k++ {
			idx, ok := nextU()
			if !ok {
				return corruptf("op block: truncated at event %d", k)
			}
			if idx >= uint64(len(dict)) {
				return corruptf("op block: index %d outside dictionary of %d entries", idx, len(dict))
			}
			pd.Op = append(pd.Op, dict[idx])
		}
	}
	if pos != len(p) {
		return corruptf("%s block: %d trailing payload bytes", c, len(p)-pos)
	}
	return nil
}

// WriteTrace writes the whole trace to w in the store format with the
// default partitioning.
func WriteTrace(w io.Writer, tr *trace.Trace) error {
	sw, err := NewWriter(w, tr.App, tr.Procs)
	if err != nil {
		return err
	}
	for i := range tr.Records {
		if err := sw.WriteRecord(tr.Records[i]); err != nil {
			return fmt.Errorf("tracestore: writing record %d: %w", i, err)
		}
	}
	return sw.Close()
}

// SaveTrace writes the trace to the named file in the store format,
// atomically (temp file in the same directory + rename), so a failed
// save never clobbers an existing file or leaves a truncated one behind.
func SaveTrace(path string, tr *trace.Trace) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("tracestore: creating temp file in %s: %w", dir, err)
	}
	tmp := f.Name()
	if err := WriteTrace(f, tr); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracestore: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracestore: replacing %s: %w", path, err)
	}
	return nil
}
