package tracestore

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpipredict/internal/trace"
)

// arbitraryTrace builds a deterministic pseudo-random trace exercising
// every record field: negative senders (collectives use -1 in some
// generators), zero sizes, several ops, both levels and kinds, and
// non-monotonic float times.
func arbitraryTrace(rng *rand.Rand, n int) *trace.Trace {
	tr := trace.New("arb", 8)
	ops := []string{"send", "isend", "bcast", "allreduce", ""}
	for i := 0; i < n; i++ {
		rec := trace.Record{
			Time:     rng.Float64()*1e6 - 100,
			Receiver: rng.Intn(8),
			Sender:   rng.Intn(10) - 1,
			Size:     int64(rng.Intn(1 << 16)),
			Tag:      rng.Intn(100) - 50,
			Kind:     trace.Kind(rng.Intn(2)),
			Level:    trace.Level(rng.Intn(2)),
			Op:       ops[rng.Intn(len(ops))],
		}
		tr.Append(rec)
	}
	return tr
}

func encodeStore(t *testing.T, tr *trace.Trace, partEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterPartitioned(&buf, tr.App, tr.Procs, partEvents)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if err := w.WriteRecord(tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeStore materializes every record through the sequential reader.
func decodeStore(t *testing.T, data []byte) *trace.Trace {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(r.App(), r.Procs())
	rr := &recordReader{r: r}
	for {
		rec, err := rr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tr.Append(rec)
	}
	return tr
}

func tracesEqual(a, b *trace.Trace) bool {
	return a.App == b.App && a.Procs == b.Procs && reflect.DeepEqual(a.Records, b.Records)
}

func TestStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 64, 500} {
		for _, part := range []int{1, 3, 16, PartitionEvents} {
			tr := arbitraryTrace(rng, n)
			data := encodeStore(t, tr, part)
			got := decodeStore(t, data)
			if !tracesEqual(tr, got) {
				t.Errorf("n=%d part=%d: round-trip mismatch", n, part)
			}
		}
	}
}

// eofReaderAt returns (len(p), io.EOF) when a read ends exactly at end
// of input, as the io.ReaderAt contract permits (os.File and
// bytes.Reader happen to return nil there). NewReader takes any
// io.ReaderAt, so such reads must not be treated as corruption.
type eofReaderAt struct{ data []byte }

func (r eofReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(r.data)) {
		return 0, io.EOF
	}
	n := copy(p, r.data[off:])
	if n < len(p) || off+int64(n) == int64(len(r.data)) {
		return n, io.EOF
	}
	return n, nil
}

func TestReaderToleratesEOFAtExactEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := arbitraryTrace(rng, 200)
	data := encodeStore(t, tr, 16)
	r, err := NewReader(eofReaderAt{data}, int64(len(data)))
	if err != nil {
		t.Fatalf("NewReader over an EOF-returning ReaderAt: %v", err)
	}
	var pd PartitionData
	for i := 0; i < r.Partitions(); i++ {
		if err := r.ReadPartition(i, AllColumns, &pd); err != nil {
			t.Fatalf("ReadPartition(%d): %v", i, err)
		}
	}
}

func TestStoreReaderMetadata(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := arbitraryTrace(rng, 100)
	data := encodeStore(t, tr, 16)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if r.App() != "arb" || r.Procs() != 8 {
		t.Errorf("header = (%q, %d), want (arb, 8)", r.App(), r.Procs())
	}
	if r.Events() != 100 {
		t.Errorf("Events() = %d, want 100", r.Events())
	}
	if want := (100 + 15) / 16; r.Partitions() != want {
		t.Errorf("Partitions() = %d, want %d", r.Partitions(), want)
	}
	min, max, ok := r.TimeBounds()
	if !ok {
		t.Fatal("TimeBounds not ok for a non-empty store")
	}
	wantMin, wantMax := tr.Records[0].Time, tr.Records[0].Time
	for _, rec := range tr.Records {
		if rec.Time < wantMin {
			wantMin = rec.Time
		}
		if rec.Time > wantMax {
			wantMax = rec.Time
		}
	}
	if min != wantMin || max != wantMax {
		t.Errorf("TimeBounds = (%g, %g), want (%g, %g)", min, max, wantMin, wantMax)
	}
}

func TestStoreEmptyTrace(t *testing.T) {
	tr := trace.New("empty", 4)
	data := encodeStore(t, tr, 8)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Events() != 0 || r.Partitions() != 0 {
		t.Errorf("empty store has %d events in %d partitions", r.Events(), r.Partitions())
	}
	if _, _, ok := r.TimeBounds(); ok {
		t.Error("TimeBounds ok for an empty store")
	}
	if _, _, err := r.TimeWindows(t.Context(), trace.Logical, 4, 1); !errors.Is(err, ErrEmptyStore) {
		t.Errorf("TimeWindows over empty store: %v, want ErrEmptyStore", err)
	}
}

func TestWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriterPartitioned(&buf, "x", 1, 0); err == nil {
		t.Error("partition size 0 accepted")
	}
	if _, err := NewWriter(&buf, strings.Repeat("x", maxStringLen+1), 1); err == nil {
		t.Error("oversized app name accepted")
	}
	w, err := NewWriter(&buf, "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(trace.Record{Op: strings.Repeat("y", maxStringLen+1)}); err == nil {
		t.Error("oversized op name accepted")
	}
	w2, err := NewWriter(&buf, "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err == nil {
		t.Error("double Close accepted")
	}
	if err := w2.WriteRecord(trace.Record{}); err == nil {
		t.Error("WriteRecord after Close accepted")
	}
}

func TestSaveTraceAtomicAndOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.mpts")
	rng := rand.New(rand.NewSource(3))
	good := arbitraryTrace(rng, 40)
	if err := SaveTrace(path, good); err != nil {
		t.Fatal(err)
	}
	bad := trace.New("arb", 8)
	bad.Append(trace.Record{Op: strings.Repeat("x", maxStringLen+1)})
	if err := SaveTrace(path, bad); err == nil {
		t.Fatal("expected an error for an unencodable trace")
	}
	got, _, err := LoadFile(path)
	if err != nil {
		t.Fatalf("previous good file was damaged: %v", err)
	}
	if !tracesEqual(good, got) {
		t.Error("previous good file was replaced by a failed save")
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(leftovers) != 0 {
		t.Errorf("failed save left temp files: %v", leftovers)
	}

	// The registered format: trace.Open and trace.Load sniff the store
	// magic and read through the tracestore reader.
	of, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if of.App() != good.App || of.Procs() != good.Procs {
		t.Errorf("trace.Open header = (%q, %d), want (%q, %d)", of.App(), of.Procs(), good.App, good.Procs)
	}
	count := 0
	for {
		_, err := of.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != len(good.Records) {
		t.Errorf("trace.Open read %d records, want %d", count, len(good.Records))
	}
	if err := of.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(good, loaded) {
		t.Error("trace.Load over the store mismatches the source trace")
	}
}

func TestLoadFileMatchesSequentialRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.mpts")
	rng := rand.New(rand.NewSource(4))
	tr := arbitraryTrace(rng, 300)
	var buf bytes.Buffer
	w, err := NewWriterPartitioned(&buf, tr.App, tr.Procs, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if err := w.WriteRecord(tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(tr, got) {
		t.Error("LoadFile mismatches the source trace")
	}
	if stats.Events != 300 || stats.Partitions != 10 {
		t.Errorf("stats = %+v, want 300 events over 10 partitions", stats)
	}
}

// corruptErr asserts that decoding data fails with an ErrCorrupt-class
// error. Reads go through NewReader plus a full sequential decode, so a
// flip anywhere — header, any block, footer, tail — must surface.
func corruptErr(data []byte) error {
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	rr := &recordReader{r: r}
	for {
		if _, err := rr.Read(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func TestStoreRejectsEveryTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := arbitraryTrace(rng, 24)
	data := encodeStore(t, tr, 8)
	for n := 0; n < len(data); n++ {
		err := corruptErr(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes was accepted", n, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

func TestStoreRejectsEveryBitFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive bit-flip sweep is slow in -short mode")
	}
	rng := rand.New(rand.NewSource(6))
	tr := arbitraryTrace(rng, 24)
	data := encodeStore(t, tr, 8)
	mutated := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			copy(mutated, data)
			mutated[i] ^= 1 << bit
			err := corruptErr(mutated)
			if err == nil {
				t.Fatalf("flip of byte %d bit %d was accepted", i, bit)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip of byte %d bit %d: error %v does not wrap ErrCorrupt", i, bit, err)
			}
		}
	}
}

func TestOpenRejectsWrongFormats(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "t.jsonl")
	tr := trace.New("bt", 4)
	tr.Append(trace.Record{Op: "send"})
	if err := trace.SaveFile(jsonl, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(jsonl); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open(JSONL) = %v, want an ErrCorrupt-class rejection", err)
	}
	if _, err := Open(filepath.Join(dir, "missing.mpts")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open(missing) = %v, want ErrNotExist", err)
	}
}

func TestColumnSetAndStrings(t *testing.T) {
	s := Cols(ColTime, ColOp)
	if !s.Has(ColTime) || !s.Has(ColOp) || s.Has(ColSender) {
		t.Errorf("Cols membership wrong: %b", s)
	}
	for c := Column(0); c < numColumns; c++ {
		if !AllColumns.Has(c) {
			t.Errorf("AllColumns lacks column %d", c)
		}
	}
	for c := Column(0); c < numColumns; c++ {
		if strings.Contains(c.String(), "column(") {
			t.Errorf("column %d has no name", c)
		}
	}
}

func FuzzStoreCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, 40} {
		tr := arbitraryTrace(rng, n)
		var buf bytes.Buffer
		w, err := NewWriterPartitioned(&buf, tr.App, tr.Procs, 7)
		if err != nil {
			f.Fatal(err)
		}
		for i := range tr.Records {
			if err := w.WriteRecord(tr.Records[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// A truncated and a bit-flipped variant point the fuzzer at the
		// rejection paths from the start.
		f.Add(buf.Bytes()[:buf.Len()/2])
		flipped := append([]byte(nil), buf.Bytes()...)
		flipped[len(flipped)/3] ^= 0x20
		f.Add(flipped)
	}
	// The committed golden corpus stores seed realistic structures.
	corpus, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.mpts"))
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("NewReader error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// Accepted input: a full decode must succeed or reject as corrupt,
		// and whatever decodes must re-encode and decode to the same
		// records (the round-trip stability property).
		tr := trace.New(r.App(), r.Procs())
		rr := &recordReader{r: r}
		for {
			rec, err := rr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
				}
				return
			}
			tr.Append(rec)
		}
		if int64(len(tr.Records)) != r.Events() {
			t.Fatalf("decoded %d records, footer says %d", len(tr.Records), r.Events())
		}
		var buf bytes.Buffer
		w, err := NewWriterPartitioned(&buf, tr.App, tr.Procs, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Records {
			if err := w.WriteRecord(tr.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again := decodeStore(t, buf.Bytes())
		if !tracesEqual(tr, again) {
			t.Fatal("re-encoded store decodes to different records")
		}
	})
}

func TestWriteTraceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := arbitraryTrace(rng, 200)
	var a, b bytes.Buffer
	if err := WriteTrace(&a, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteTrace is not byte-deterministic")
	}
}

func TestStoreCompression(t *testing.T) {
	// Sanity-check the encodings actually compress: a realistic stream
	// (bursts sharing arrival timestamps, few ops, small senders) must
	// take far less than the naive fixed-width footprint.
	tr := trace.New("dense", 16)
	for i := 0; i < 10000; i++ {
		tr.Append(trace.Record{
			Time:     float64(i/16) * 12.5,
			Receiver: 0,
			Sender:   i % 16,
			Size:     1024,
			Kind:     trace.PointToPoint,
			Level:    trace.Logical,
			Op:       "send",
		})
	}
	data := encodeStore(t, tr, PartitionEvents)
	naive := len(tr.Records) * (8 + 8 + 8 + 8 + 8 + 1 + 1 + 4)
	if len(data) >= naive/4 {
		t.Errorf("store takes %d bytes, naive fixed-width %d — expected at least 4x compression", len(data), naive)
	}
}

func TestPartitionDataRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := arbitraryTrace(rng, 10)
	data := encodeStore(t, tr, 64)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var pd PartitionData
	if err := r.ReadPartition(0, AllColumns, &pd); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		want := tr.Records[i]
		want.Seq = 0
		if got := pd.Record(i); got != want {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if err := r.ReadPartition(5, AllColumns, &pd); err == nil {
		t.Error("out-of-range partition accepted")
	}
}
