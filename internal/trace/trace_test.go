package trace

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevelAndKindStrings(t *testing.T) {
	if Logical.String() != "logical" || Physical.String() != "physical" {
		t.Error("level strings wrong")
	}
	if !strings.Contains(Level(9).String(), "9") {
		t.Error("unknown level should include numeric value")
	}
	if PointToPoint.String() != "p2p" || Collective.String() != "collective" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(Kind(7).String(), "7") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestParseLevel(t *testing.T) {
	if l, err := ParseLevel("logical"); err != nil || l != Logical {
		t.Errorf("ParseLevel(logical)=%v,%v", l, err)
	}
	if l, err := ParseLevel("physical"); err != nil || l != Physical {
		t.Errorf("ParseLevel(physical)=%v,%v", l, err)
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Error("ParseLevel(bogus) should fail")
	}
}

func sampleTrace() *Trace {
	t := New("bt", 4)
	msgs := []struct {
		sender int
		size   int64
		kind   Kind
	}{
		{0, 3240, PointToPoint},
		{1, 10240, PointToPoint},
		{2, 19440, PointToPoint},
		{0, 3240, PointToPoint},
		{1, 8, Collective},
	}
	for i, m := range msgs {
		t.Append(Record{Time: float64(i), Receiver: 3, Sender: m.sender, Size: m.size, Kind: m.kind, Op: "send", Level: Logical})
	}
	// Physical stream: same messages, two arrivals swapped.
	order := []int{0, 2, 1, 3, 4}
	for i, idx := range order {
		m := msgs[idx]
		t.Append(Record{Time: float64(i), Receiver: 3, Sender: m.sender, Size: m.size, Kind: m.kind, Op: "send", Level: Physical})
	}
	// Another receiver with a single message.
	t.Append(Record{Time: 0, Receiver: 1, Sender: 3, Size: 64, Kind: PointToPoint, Op: "send", Level: Logical})
	return t
}

func TestAppendAssignsSequenceNumbers(t *testing.T) {
	tr := sampleTrace()
	logical := tr.Filter(3, Logical)
	if len(logical) != 5 {
		t.Fatalf("logical records=%d want 5", len(logical))
	}
	for i, r := range logical {
		if r.Seq != int64(i) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
	physical := tr.Filter(3, Physical)
	if len(physical) != 5 {
		t.Fatalf("physical records=%d want 5", len(physical))
	}
	if got := tr.Filter(1, Logical); len(got) != 1 || got[0].Seq != 0 {
		t.Errorf("receiver 1 stream wrong: %+v", got)
	}
	if tr.Len() != 11 {
		t.Errorf("total records=%d want 11", tr.Len())
	}
}

func TestAppendRebuildsIndexAfterManualConstruction(t *testing.T) {
	// A Trace assembled field-by-field (as an older JSONL reader did) must keep
	// numbering consistent when Append is called afterwards.
	tr := &Trace{App: "x", Procs: 2}
	tr.Records = append(tr.Records, Record{Seq: 0, Receiver: 0, Level: Logical})
	tr.Records = append(tr.Records, Record{Seq: 1, Receiver: 0, Level: Logical})
	tr.Append(Record{Receiver: 0, Level: Logical})
	recs := tr.Filter(0, Logical)
	if recs[2].Seq != 2 {
		t.Errorf("appended record seq=%d want 2", recs[2].Seq)
	}
}

func TestStreams(t *testing.T) {
	tr := sampleTrace()
	senders := tr.SenderStream(3, Logical)
	want := []int64{0, 1, 2, 0, 1}
	if len(senders) != len(want) {
		t.Fatalf("sender stream=%v", senders)
	}
	for i := range want {
		if senders[i] != want[i] {
			t.Fatalf("sender stream=%v want %v", senders, want)
		}
	}
	sizes := tr.SizeStream(3, Physical)
	wantSizes := []int64{3240, 19440, 10240, 3240, 8}
	for i := range wantSizes {
		if sizes[i] != wantSizes[i] {
			t.Fatalf("physical size stream=%v want %v", sizes, wantSizes)
		}
	}
	if got := tr.SenderStream(99, Logical); len(got) != 0 {
		t.Errorf("stream of unknown receiver should be empty, got %v", got)
	}
}

func TestReceivers(t *testing.T) {
	tr := sampleTrace()
	got := tr.Receivers()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("receivers=%v want [1 3]", got)
	}
	empty := New("x", 1)
	if len(empty.Receivers()) != 0 {
		t.Error("empty trace should have no receivers")
	}
}

func TestCharacterize(t *testing.T) {
	tr := sampleTrace()
	c := tr.Characterize(3, Logical, 1.0)
	if c.P2PMsgs != 4 || c.CollMsgs != 1 {
		t.Errorf("p2p=%d coll=%d want 4,1", c.P2PMsgs, c.CollMsgs)
	}
	if c.AllSizes != 4 || c.AllSender != 3 {
		t.Errorf("allSizes=%d allSenders=%d want 4,3", c.AllSizes, c.AllSender)
	}
	if c.App != "bt" || c.Procs != 4 || c.Receiver != 3 {
		t.Errorf("metadata wrong: %+v", c)
	}
}

func TestCharacterizeFrequentFiltersRareValues(t *testing.T) {
	tr := New("synthetic", 2)
	for i := 0; i < 200; i++ {
		size := int64(1024)
		if i%2 == 1 {
			size = 2048
		}
		tr.Append(Record{Receiver: 0, Sender: 1 + i%2, Size: size, Kind: PointToPoint, Level: Logical})
	}
	// One rare setup message with a unique size from a unique sender.
	tr.Append(Record{Receiver: 0, Sender: 9, Size: 4, Kind: PointToPoint, Level: Logical})
	c := tr.Characterize(0, Logical, 0.99)
	if c.MsgSizes != 2 || c.Senders != 2 {
		t.Errorf("frequent sizes=%d senders=%d want 2,2", c.MsgSizes, c.Senders)
	}
	if c.AllSizes != 3 || c.AllSender != 3 {
		t.Errorf("all sizes=%d senders=%d want 3,3", c.AllSizes, c.AllSender)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.App != tr.App || got.Procs != tr.Procs || got.Len() != tr.Len() {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, tr)
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := readJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header should fail")
	}
	if _, err := readJSONL(strings.NewReader(`{"format":"something-else"}` + "\n")); err == nil {
		t.Error("wrong format should fail")
	}
	bad := `{"format":"mpipredict-trace-v1","app":"x","procs":2}` + "\n" + `{"seq": "oops"}` + "\n"
	if _, err := readJSONL(strings.NewReader(bad)); err == nil {
		t.Error("malformed record should fail")
	}
}

func TestSaveAndLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	tr := sampleTrace()
	if err := SaveFile(path, tr); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("loaded %d records want %d", got.Len(), tr.Len())
	}
	if _, err := Load(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("loading a missing file should fail")
	}
	if err := SaveFile(filepath.Join(dir, "no-such-dir", "x.jsonl"), tr); err == nil {
		t.Error("saving into a missing directory should fail")
	}
}

func TestSynthesizeWithoutNoiseProducesIdenticalStreams(t *testing.T) {
	cfg := SynthConfig{
		App: "synthetic", Procs: 4, Receiver: 2,
		Pattern: []SynthMessage{
			{Sender: 0, Size: 100}, {Sender: 1, Size: 200}, {Sender: 3, Size: 300},
		},
		Events: 30,
	}
	tr := Synthesize(cfg)
	logicalSenders := tr.SenderStream(2, Logical)
	physicalSenders := tr.SenderStream(2, Physical)
	if len(logicalSenders) != 30 || len(physicalSenders) != 30 {
		t.Fatalf("stream lengths %d/%d want 30/30", len(logicalSenders), len(physicalSenders))
	}
	for i := range logicalSenders {
		if logicalSenders[i] != physicalSenders[i] {
			t.Fatalf("without noise logical and physical streams must match at %d", i)
		}
		if logicalSenders[i] != int64(cfg.Pattern[i%3].Sender) {
			t.Fatalf("logical stream does not follow the pattern at %d", i)
		}
	}
}

func TestSynthesizeNoisePermutesButPreservesMultiset(t *testing.T) {
	cfg := SynthConfig{
		App: "synthetic", Procs: 4, Receiver: 0,
		Pattern: []SynthMessage{
			{Sender: 1, Size: 10}, {Sender: 2, Size: 20}, {Sender: 3, Size: 30},
		},
		Events:          150,
		SwapProbability: 0.3,
		Seed:            99,
	}
	tr := Synthesize(cfg)
	logical := tr.SenderStream(0, Logical)
	physical := tr.SenderStream(0, Physical)
	diff := 0
	countL := map[int64]int{}
	countP := map[int64]int{}
	for i := range logical {
		if logical[i] != physical[i] {
			diff++
		}
		countL[logical[i]]++
		countP[physical[i]]++
	}
	if diff == 0 {
		t.Error("with 30% swap probability some positions must differ")
	}
	for v, c := range countL {
		if countP[v] != c {
			t.Errorf("physical stream changed the multiset of senders: %v vs %v", countL, countP)
		}
	}
	// Determinism: same seed, same result.
	tr2 := Synthesize(cfg)
	p2 := tr2.SenderStream(0, Physical)
	for i := range physical {
		if physical[i] != p2[i] {
			t.Fatal("Synthesize must be deterministic for a fixed seed")
		}
	}
}

// Property: for any set of appended records, every (receiver, level)
// stream has dense sequence numbers 0..n-1 and SenderStream/SizeStream
// lengths agree with Filter.
func TestTraceSequenceNumbersDense(t *testing.T) {
	f := func(raw []uint8) bool {
		tr := New("prop", 4)
		for i, b := range raw {
			tr.Append(Record{
				Receiver: int(b % 3),
				Sender:   int(b % 5),
				Size:     int64(i),
				Level:    Level(b % 2),
				Kind:     Kind(b % 2),
			})
		}
		for _, recv := range tr.Receivers() {
			for _, level := range []Level{Logical, Physical} {
				recs := tr.Filter(recv, level)
				for i, r := range recs {
					if r.Seq != int64(i) {
						return false
					}
				}
				if len(tr.SenderStream(recv, level)) != len(recs) {
					return false
				}
				if len(tr.SizeStream(recv, level)) != len(recs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// readJSONL reads a whole trace written by WriteJSONL through the
// streaming JSONLReader.
func readJSONL(r io.Reader) (*Trace, error) {
	jr, err := NewJSONLReader(r)
	if err != nil {
		return nil, err
	}
	t := New(jr.App(), jr.Procs())
	for {
		rec, err := jr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Append(rec)
	}
}
