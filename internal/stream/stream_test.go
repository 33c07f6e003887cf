package stream

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
)

// synthCfg is the shared synthetic configuration of these tests: a
// period-6 pattern with arrival-order noise.
func synthCfg(events int) trace.SynthConfig {
	return trace.SynthConfig{
		App: "synth", Procs: 7, Receiver: 0,
		Pattern: []trace.SynthMessage{
			{Sender: 1, Size: 64}, {Sender: 2, Size: 128}, {Sender: 3, Size: 64},
			{Sender: 4, Size: 256}, {Sender: 5, Size: 128}, {Sender: 6, Size: 64},
		},
		Events:          events,
		SwapProbability: 0.2,
		Seed:            42,
	}
}

func records(t *testing.T, src Source) []trace.Record {
	t.Helper()
	var out []trace.Record
	var b EventBlock
	for {
		err := src.Next(&b)
		if err == io.EOF {
			if b.Len() != 0 {
				t.Fatalf("EOF delivered with %d events in the block", b.Len())
			}
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			t.Fatal("Next returned nil with an empty block")
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Record(i))
		}
	}
}

// stripSeq zeroes the Seq numbers blocks deliberately do not carry.
func stripSeq(recs []trace.Record) []trace.Record {
	out := make([]trace.Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Seq = 0
	}
	return out
}

func TestEventBlockAppendRecordRoundTrip(t *testing.T) {
	var b EventBlock
	want := trace.Record{Time: 3.5, Receiver: 2, Sender: 7, Size: 1024,
		Tag: 9, Kind: trace.Collective, Op: "bcast", Level: trace.Physical}
	b.Append(want)
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	if got := b.Record(0); got != want {
		t.Errorf("Record(0) = %+v, want %+v", got, want)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", b.Len())
	}
	if cap(b.Sender) == 0 {
		t.Error("Reset dropped the backing array instead of keeping it")
	}
}

func TestTraceSourceGatherRoundTrip(t *testing.T) {
	tr := trace.Synthesize(synthCfg(2500)) // > 2 blocks per level
	got, err := Gather(TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if got.App != tr.App || got.Procs != tr.Procs {
		t.Errorf("metadata = (%q, %d), want (%q, %d)", got.App, got.Procs, tr.App, tr.Procs)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Error("gathered records differ from the source trace")
	}
}

func TestMetaOf(t *testing.T) {
	tr := trace.Synthesize(synthCfg(10))
	md, ok := MetaOf(TraceSource(tr))
	if !ok || md.App != "synth" || md.Procs != 7 {
		t.Errorf("MetaOf = %+v, %v", md, ok)
	}
	// Transforms forward the metadata.
	md, ok = MetaOf(FilterReceiver(Perturb(TraceSource(tr), PerturbConfig{}), 0))
	if !ok || md.App != "synth" {
		t.Errorf("MetaOf through transforms = %+v, %v", md, ok)
	}
	if _, ok := MetaOf(sourceFunc(nil)); ok {
		t.Error("MetaOf reported metadata for a bare generator")
	}
}

type sourceFunc func(*EventBlock) error

func (f sourceFunc) Next(b *EventBlock) error {
	if f == nil {
		b.Reset()
		return io.EOF
	}
	return f(b)
}

// TestSynthSourceMatchesSynthesize pins the core generator equivalence:
// the constant-memory streaming generator emits exactly the records the
// in-memory Synthesize builds, including the seeded physical swaps.
func TestSynthSourceMatchesSynthesize(t *testing.T) {
	for _, events := range []int{0, 1, 2, 7, 100, 2500} {
		cfg := synthCfg(events)
		want := stripSeq(trace.Synthesize(cfg).Records)
		got := records(t, SynthSource(cfg))
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("events=%d: streamed records differ from Synthesize", events)
		}
	}
}

// TestSynthSourceCodecBytesIdentical streams the generator through the
// store encoder and compares bytes with the whole-trace writer.
func TestSynthSourceCodecBytesIdentical(t *testing.T) {
	cfg := synthCfg(300)
	var inMemory bytes.Buffer
	if err := tracestore.WriteTrace(&inMemory, trace.Synthesize(cfg)); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	w, err := tracestore.NewWriter(&streamed, cfg.App, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(SinkTo(w), SynthSource(cfg)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inMemory.Bytes(), streamed.Bytes()) {
		t.Error("streamed store differs from the in-memory one")
	}
}

func TestFilterReceiverLevel(t *testing.T) {
	tr := trace.New("t", 4)
	for i := 0; i < 10; i++ {
		tr.Append(trace.Record{Receiver: i % 3, Sender: i, Level: trace.Level(i % 2), Op: "send"})
	}
	recs := records(t, FilterReceiver(TraceSource(tr), 1))
	if len(recs) == 0 {
		t.Fatal("filter dropped everything")
	}
	for _, r := range recs {
		if r.Receiver != 1 {
			t.Errorf("record leaked through the filter: %+v", r)
		}
	}
	// And the per-receiver views, split by level, partition the stream.
	n := 0
	for recv := 0; recv < 3; recv++ {
		levels := map[trace.Level]int{}
		for _, r := range records(t, FilterReceiver(TraceSource(tr), recv)) {
			levels[r.Level]++
		}
		n += levels[trace.Logical] + levels[trace.Physical]
	}
	if n != tr.Len() {
		t.Errorf("filter views cover %d records, want %d", n, tr.Len())
	}
}

func TestPerturbDeterministicForFixedSeed(t *testing.T) {
	cfg := PerturbConfig{SwapProbability: 0.3, DropProbability: 0.05, Seed: 7}
	tr := trace.Synthesize(synthCfg(2000))
	first := records(t, Perturb(TraceSource(tr), cfg))
	second := records(t, Perturb(TraceSource(tr), cfg))
	if !reflect.DeepEqual(first, second) {
		t.Error("same seed produced different perturbations")
	}
	cfg.Seed = 8
	third := records(t, Perturb(TraceSource(tr), cfg))
	if reflect.DeepEqual(first, third) {
		t.Error("different seeds produced identical perturbations")
	}
	if len(first) >= tr.Len() {
		t.Errorf("drops lost nothing: %d of %d records survived", len(first), tr.Len())
	}
}

func TestPerturbPhysicalOnlyLeavesLogicalIntact(t *testing.T) {
	tr := trace.Synthesize(synthCfg(500))
	cfg := PerturbConfig{SwapProbability: 0.5, DropProbability: 0.2, PhysicalOnly: true, Seed: 3}
	perturbed, err := Gather(Perturb(TraceSource(tr), cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantLog := tr.SenderStream(0, trace.Logical)
	gotLog := perturbed.SenderStream(0, trace.Logical)
	if !reflect.DeepEqual(wantLog, gotLog) {
		t.Error("PhysicalOnly perturbation touched the logical stream")
	}
	gotPhy := perturbed.SenderStream(0, trace.Physical)
	if reflect.DeepEqual(tr.SenderStream(0, trace.Physical), gotPhy) {
		t.Error("perturbation left the physical stream untouched")
	}
}

// TestPerturbNoOpIsIdentity pins that a zero config forwards the stream
// unchanged (modulo the Seq numbers blocks never carry).
func TestPerturbNoOpIsIdentity(t *testing.T) {
	tr := trace.Synthesize(synthCfg(1500))
	got := records(t, Perturb(TraceSource(tr), PerturbConfig{}))
	if !reflect.DeepEqual(got, stripSeq(tr.Records)) {
		t.Error("no-op perturbation changed the stream")
	}
}

func TestFileSourceStreamsBothFormats(t *testing.T) {
	tr := trace.Synthesize(synthCfg(1200))
	dir := t.TempDir()
	bin := dir + "/t.mpts"
	jsonl := dir + "/t.jsonl"
	if err := tracestore.SaveTrace(bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFile(jsonl, tr); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bin, jsonl} {
		src, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := records(t, src)
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if md, ok := MetaOf(src); !ok || md.App != tr.App || md.Procs != tr.Procs {
			t.Errorf("%s: metadata = %+v, %v", path, md, ok)
		}
		if !reflect.DeepEqual(got, stripSeq(tr.Records)) {
			t.Errorf("%s: streamed records differ from the saved trace", path)
		}
	}
	if _, err := OpenFile(dir + "/missing.mpts"); err == nil {
		t.Error("OpenFile of a missing file succeeded")
	}
}

func TestTeeWritesAllSinks(t *testing.T) {
	cfg := synthCfg(100)
	var b1, b2 bytes.Buffer
	w1, err := tracestore.NewWriter(&b1, cfg.App, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := trace.NewJSONLWriter(&b2, cfg.App, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(Tee(SinkTo(w1), SinkTo(w2)), SynthSource(cfg)); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if b1.Len() == 0 || b2.Len() == 0 {
		t.Fatal("one of the teed sinks stayed empty")
	}
	// Store writes are deterministic, so the JSONL side re-encoded as a
	// store must reproduce the teed store byte for byte.
	path := filepath.Join(t.TempDir(), "tee.jsonl")
	if err := os.WriteFile(path, b2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := tracestore.WriteTrace(&again, fromJSONL); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), again.Bytes()) {
		t.Error("store and JSONL tee outputs hold different traces")
	}
}

// TestSourcesAllocateNothingPerBlockSteadyState guards the reuse
// contract: once the block's arrays have grown, draining more blocks
// allocates nothing in the filter path.
func TestFilterCompactsInPlace(t *testing.T) {
	tr := trace.Synthesize(synthCfg(4000))
	src := FilterReceiver(TraceSource(tr), 0)
	var b EventBlock
	if err := src.Next(&b); err != nil {
		t.Fatal(err)
	}
	firstArray := &b.Sender[:1][0]
	if err := src.Next(&b); err != nil {
		t.Fatal(err)
	}
	if &b.Sender[:1][0] != firstArray {
		t.Error("filter reallocated the block's backing array between calls")
	}
}
