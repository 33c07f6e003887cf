package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// arbitraryObserve builds a deterministic-for-seed observe frame.
func arbitraryObserve(rng *rand.Rand) []byte {
	tenants := []string{"acme", "t", "", "tenant/with spaces"}
	n := rng.Intn(64)
	senders := make([]int64, n)
	sizes := make([]int64, n)
	for i := range senders {
		senders[i] = int64(rng.Intn(1<<16) - 1<<10)
		sizes[i] = int64(rng.Intn(1 << 20))
	}
	return AppendObserve(nil,
		tenants[rng.Intn(len(tenants))],
		"bt.0",
		"dpd",
		int64(rng.Intn(1000)),
		senders, sizes)
}

// stream is a handshake plus a representative frame of every type;
// boundaries records every offset at which a truncation is a clean end
// of stream rather than corruption.
func buildStream(t *testing.T) (data []byte, boundaries map[int]bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHandshake(&buf); err != nil {
		t.Fatal(err)
	}
	boundaries = map[int]bool{buf.Len(): true}
	fw := NewFrameWriter(&buf)
	rng := rand.New(rand.NewSource(1803))
	frames := [][]byte{
		arbitraryObserve(rng),
		AppendAck(nil, 3, 1),
		AppendPredict(nil, 7, "acme", "bt.0", 5),
		AppendPredictResp(nil, 7, true, 128, []Forecast{
			{Sender: 3, SenderOK: true, Size: 4096, SizeOK: true},
			{Sender: -1, SenderOK: false, Size: 0, SizeOK: false},
		}),
		AppendError(nil, CodeUnavailable, 9, "draining"),
	}
	for _, p := range frames {
		if err := fw.WriteFrame(p); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		boundaries[buf.Len()] = true
	}
	return buf.Bytes(), boundaries
}

// decodeAll consumes a handshake then frames until EOF, fully decoding
// each payload by type. Returns the number of complete frames decoded.
func decodeAll(data []byte) (frames int, err error) {
	fr := NewFrameReader(bytes.NewReader(data))
	if err := fr.Handshake(); err != nil {
		return 0, err
	}
	var ov ObserveView
	var pv PredictView
	var rv PredictRespView
	for {
		p, err := fr.ReadFrame()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		switch p[0] {
		case FrameObserve:
			err = ov.Decode(p)
		case FrameObserveAck:
			_, _, err = DecodeAck(p)
		case FramePredict:
			err = pv.Decode(p)
		case FramePredictResp:
			err = rv.Decode(p)
		case FrameError:
			_, err = DecodeError(p)
		default:
			err = corruptf("unknown frame type %02x", p[0])
		}
		if err != nil {
			return frames, err
		}
		frames++
	}
}

func TestObserveRoundTripProperty(t *testing.T) {
	var view ObserveView
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tenant := []string{"acme", "", "t2"}[rng.Intn(3)]
		stream := "bt." + string(rune('0'+rng.Intn(10)))
		strat := []string{"", "dpd", "meta", "markov1"}[rng.Intn(4)]
		seq := int64(rng.Intn(1 << 20))
		n := rng.Intn(200)
		senders := make([]int64, n)
		sizes := make([]int64, n)
		for i := range senders {
			senders[i] = rng.Int63n(1<<40) - 1<<39
			sizes[i] = rng.Int63n(1 << 40)
		}
		p := AppendObserve(nil, tenant, stream, strat, seq, senders, sizes)
		if err := view.Decode(p); err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}
		if string(view.Tenant) != tenant || string(view.Stream) != stream || string(view.Strategy) != strat || view.Seq != seq {
			t.Fatalf("seed %d: header mismatch: got (%q,%q,%q,%d)", seed, view.Tenant, view.Stream, view.Strategy, view.Seq)
		}
		if len(view.Senders) != n || len(view.Sizes) != n {
			t.Fatalf("seed %d: column lengths (%d,%d), want %d", seed, len(view.Senders), len(view.Sizes), n)
		}
		for i := range senders {
			if view.Senders[i] != senders[i] || view.Sizes[i] != sizes[i] {
				t.Fatalf("seed %d: column value %d mismatch: (%d,%d) vs (%d,%d)",
					seed, i, view.Senders[i], view.Sizes[i], senders[i], sizes[i])
			}
		}
	}
}

func TestObserveDecodeReusesScratch(t *testing.T) {
	var view ObserveView
	big := AppendObserve(nil, "t", "s", "", 1, make([]int64, 512), make([]int64, 512))
	if err := view.Decode(big); err != nil {
		t.Fatal(err)
	}
	p0 := &view.Senders[0]
	small := AppendObserve(nil, "t", "s", "", 2, []int64{7}, []int64{9})
	if err := view.Decode(small); err != nil {
		t.Fatal(err)
	}
	if len(view.Senders) != 1 || view.Senders[0] != 7 {
		t.Fatalf("small decode got %v", view.Senders)
	}
	if &view.Senders[0] != p0 {
		t.Error("smaller block reallocated the column scratch; it must reuse the backing array")
	}
}

// TestDecodeZeroAllocs pins the decode hot path of the two request
// frames at zero allocations per frame with reused views: the field
// names that go into error messages must only be formatted on failure.
func TestDecodeZeroAllocs(t *testing.T) {
	senders := make([]int64, 64)
	sizes := make([]int64, 64)
	for i := range senders {
		senders[i] = int64(i % 18)
		sizes[i] = int64(1024 << (i % 5))
	}
	observe := AppendObserve(nil, "bt.4", "r3/physical", "dpd", 17, senders, sizes)
	var ov ObserveView
	if err := ov.Decode(observe); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := ov.Decode(observe); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ObserveView.Decode of a 64-event frame allocates %.2f objects, want 0", allocs)
	}

	predict := AppendPredict(nil, 9, "bt.4", "r3/physical", 5)
	var pv PredictView
	if allocs := testing.AllocsPerRun(200, func() {
		if err := pv.Decode(predict); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("PredictView.Decode allocates %.2f objects, want 0", allocs)
	}
}

// TestDecodeErrorNamesField pins the wording of the errors whose field
// names are now formatted only on the error path.
func TestDecodeErrorNamesField(t *testing.T) {
	var ov ObserveView
	for _, c := range []struct {
		payload []byte
		want    string
	}{
		{[]byte{FrameObserve, 0x80}, "reading tenant length at offset 1"},
		{[]byte{FrameObserve, 0, 0, 0, 0, 1, 0x80, 0x80}, "reading sender column value at offset 6"},
		{[]byte{FrameObserve, 0, 0, 0, 0, 1, 2, 0x80}, "reading size column value at offset 7"},
	} {
		err := ov.Decode(c.payload)
		if err == nil || !strings.HasSuffix(err.Error(), c.want) {
			t.Errorf("Decode(% x) = %v, want an error ending in %q", c.payload, err, c.want)
		}
	}
	var pv PredictView
	if err := pv.Decode([]byte{FramePredict, 1, 1, 'a', 0x80}); err == nil || !strings.HasSuffix(err.Error(), "reading stream length at offset 4") {
		t.Errorf("PredictView.Decode = %v, want a stream length error", err)
	}
}

func TestAckPredictErrorRoundTrip(t *testing.T) {
	ord, dups, err := DecodeAck(AppendAck(nil, 42, 7))
	if err != nil || ord != 42 || dups != 7 {
		t.Fatalf("ack round-trip: (%d,%d,%v)", ord, dups, err)
	}

	var pv PredictView
	if err := pv.Decode(AppendPredict(nil, 9, "acme", "bt.3", 12)); err != nil {
		t.Fatal(err)
	}
	if pv.ID != 9 || string(pv.Tenant) != "acme" || string(pv.Stream) != "bt.3" || pv.K != 12 {
		t.Fatalf("predict round-trip: %+v", pv)
	}

	fcs := []Forecast{
		{Sender: 5, SenderOK: true, Size: -3, SizeOK: true},
		{Sender: 0, SenderOK: true, Size: 0, SizeOK: false},
		{},
	}
	var rv PredictRespView
	if err := rv.Decode(AppendPredictResp(nil, 9, true, 1<<33, fcs)); err != nil {
		t.Fatal(err)
	}
	if rv.ID != 9 || !rv.Found || rv.Observed != 1<<33 || len(rv.Forecasts) != 3 {
		t.Fatalf("predict response round-trip: %+v", rv)
	}
	for i, f := range fcs {
		if rv.Forecasts[i] != f {
			t.Fatalf("forecast %d: got %+v, want %+v", i, rv.Forecasts[i], f)
		}
	}

	remote, err := DecodeError(AppendError(nil, CodeConflict, 3, "strategy mismatch"))
	if err != nil {
		t.Fatal(err)
	}
	if remote.Code != CodeConflict || remote.Ref != 3 || remote.Msg != "strategy mismatch" {
		t.Fatalf("error round-trip: %+v", remote)
	}
	if remote.Retryable() {
		t.Error("conflict must not be retryable")
	}
	if !(&RemoteError{Code: CodeUnavailable}).Retryable() {
		t.Error("unavailable must be retryable")
	}
	if !strings.Contains(remote.Error(), "strategy mismatch") {
		t.Errorf("error text %q does not carry the message", remote.Error())
	}
}

func TestNotFoundPredictRespRoundTrip(t *testing.T) {
	var rv PredictRespView
	if err := rv.Decode(AppendPredictResp(nil, 1, false, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if rv.Found || rv.Observed != 0 || len(rv.Forecasts) != 0 {
		t.Fatalf("not-found response round-trip: %+v", rv)
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	data, _ := buildStream(t)
	frames, err := decodeAll(data)
	if err != nil {
		t.Fatalf("decodeAll: %v", err)
	}
	if frames != 5 {
		t.Fatalf("decoded %d frames, want 5", frames)
	}
}

func TestFrameStreamRejectsEveryTruncation(t *testing.T) {
	data, boundaries := buildStream(t)
	for n := 0; n < len(data); n++ {
		frames, err := decodeAll(data[:n])
		if boundaries[n] {
			// A frame boundary is a legal end of stream (connections
			// close between frames) — but never silently the full count.
			if err != nil {
				t.Fatalf("clean boundary at %d rejected: %v", n, err)
			}
			if frames >= 5 {
				t.Fatalf("truncation to %d of %d bytes still decoded all %d frames", n, len(data), frames)
			}
			continue
		}
		if err == nil {
			t.Fatalf("mid-frame truncation to %d of %d bytes decoded without error (%d frames)", n, len(data), frames)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

func TestFrameStreamRejectsEverySingleByteFlip(t *testing.T) {
	data, _ := buildStream(t)
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0xff
		if _, err := decodeAll(mutated); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected (CRC must catch every corruption)", i, len(data))
		}
	}
}

func TestHandshakeRejectsWrongMagicAndVersion(t *testing.T) {
	if _, err := decodeAll([]byte("GET / HTTP/1.1\r\n")); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("HTTP preamble: got %v, want ErrCorrupt", err)
	}
	var buf bytes.Buffer
	if err := WriteHandshake(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version varint, first byte after the magic
	if _, err := decodeAll(data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: got %v, want a version error", err)
	}
}

func TestFrameWriterRejectsOversizeAndEmpty(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	if err := fw.WriteFrame(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := fw.WriteFrame(make([]byte, MaxFramePayload+1)); err == nil {
		t.Error("oversize payload accepted")
	}
}

func TestFrameReaderRejectsOversizeLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x81, 0x80, 0x80, 0x01}) // uvarint(1<<21+1) > MaxFramePayload
	fr := NewFrameReader(&buf)
	if _, err := fr.ReadFrame(); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversize frame length: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsWrongFrameType(t *testing.T) {
	observe := AppendObserve(nil, "t", "s", "", 1, nil, nil)
	ack := AppendAck(nil, 1, 0)
	var ov ObserveView
	if err := ov.Decode(ack); err == nil {
		t.Error("ObserveView accepted an ack frame")
	}
	if _, _, err := DecodeAck(observe); err == nil {
		t.Error("DecodeAck accepted an observe frame")
	}
	var pv PredictView
	if err := pv.Decode(observe); err == nil {
		t.Error("PredictView accepted an observe frame")
	}
	var rv PredictRespView
	if err := rv.Decode(observe); err == nil {
		t.Error("PredictRespView accepted an observe frame")
	}
	if _, err := DecodeError(observe); err == nil {
		t.Error("DecodeError accepted an observe frame")
	}
}

func TestObserveDecodeRejectsHostileCount(t *testing.T) {
	// A claimed column count far beyond the payload must be rejected
	// before any scratch allocation proportional to it.
	p := []byte{FrameObserve}
	p = appendString(p, "t")
	p = appendString(p, "s")
	p = appendString(p, "")
	p = appendVarint(p, 1)
	p = appendUvarint(p, MaxColumnLen) // count with no column bytes behind it
	var ov ObserveView
	if err := ov.Decode(p); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile count: got %v, want ErrCorrupt", err)
	}
	p2 := []byte{FrameObserve}
	p2 = appendString(p2, "t")
	p2 = appendString(p2, "s")
	p2 = appendString(p2, "")
	p2 = appendVarint(p2, 1)
	p2 = appendUvarint(p2, MaxColumnLen+1)
	p2 = append(p2, make([]byte, 2*(MaxColumnLen+1))...)
	if err := ov.Decode(p2); err == nil || !strings.Contains(err.Error(), "event count") {
		t.Fatalf("over-limit count: got %v, want an event count error", err)
	}
}

func TestPredictRespRejectsUnknownFlags(t *testing.T) {
	p := AppendPredictResp(nil, 1, true, 0, []Forecast{{SenderOK: true, SizeOK: true}})
	// The flags byte of forecast 0 is right after id(1)+found(1)+observed(1)+count(1).
	idx := bytes.IndexByte(p[1:], flagSenderOK|flagSizeOK) + 1
	p[idx] |= 0x80
	var rv PredictRespView
	if err := rv.Decode(p); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("unknown forecast flags: got %v, want a flags error", err)
	}
}

func TestErrorsWrapErrCorrupt(t *testing.T) {
	data, _ := buildStream(t)
	for _, n := range []int{0, 2, len(data) / 2} {
		if _, err := decodeAll(data[:n]); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}
