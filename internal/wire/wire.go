// Package wire is the binary columnar wire protocol of the serve hot
// path: the framing, handshake and payload codecs a prediction daemon's
// `-listen-wire` listener and the replay/load-generation clients share.
//
// The protocol exists because HTTP/JSON observe pays an encode/decode tax
// on every request while the registry underneath is allocation-free: the
// observe frame here IS the columnar stream.EventBlock layout — parallel
// varint-packed sender and size columns — so a frame decodes straight
// into reusable int64 scratch and feeds Registry.ObserveBlockSeq without
// any intermediate representation.
//
// Transport shape (DESIGN.md §10):
//
//   - One TCP connection, long-lived. Both sides open with a handshake —
//     magic "MPW\x01" plus a uvarint protocol version — and reject peers
//     they cannot speak to. Everything after the handshake is frames.
//   - A frame is: uvarint payload length, payload bytes, then a 4-byte
//     little-endian CRC-32 (IEEE) of the payload — the same integrity
//     discipline as the .mpts/.mps codecs (DESIGN.md §3), applied per
//     frame so a long-lived stream detects corruption mid-connection.
//   - payload[0] is the frame type; the rest is type-specific, built
//     from the §3 primitives (uvarint, zig-zag varint, length-prefixed
//     strings).
//
// Frame types:
//
//	FrameObserve     (0x01)  client→server: tenant, stream, strategy,
//	                         seq, then count + senders + sizes columns
//	FrameObserveAck  (0x02)  server→client: cumulative watermark — the
//	                         ordinal of the last observe frame processed
//	                         on this connection, plus the cumulative
//	                         duplicate count. One ack covers every frame
//	                         at or below the watermark, so a pipelined
//	                         burst of N frames costs one ack, not N.
//	FramePredict     (0x03)  client→server: id, tenant, stream, k
//	FramePredictResp (0x04)  server→client: id, found, observed count,
//	                         then k forecasts (sender, size, ok flags)
//	FrameError       (0x05)  server→client: code, ref, message — then
//	                         the server closes the connection
//
// Observe frames are pipelined: the client keeps writing without waiting
// for acks (bounded by its window), the server processes a whole buffered
// burst and acks once at the watermark. Duplicate suppression is the
// same per-(tenant, stream) seq dedup the HTTP surface uses, so a client
// that reconnects and resends its unacked frames verbatim converges to
// exactly-once state.
//
// Compatibility policy matches the other codecs: the magic pins the
// protocol family, the version is bumped on any incompatible change, and
// unknown frame types are errors, not extension points.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic introduces both directions of a wire connection.
var Magic = [4]byte{'M', 'P', 'W', 0x01}

// Version is the current protocol version. Both sides send it in their
// handshake; there is no downgrade negotiation at version 1 — a peer
// speaking another version is rejected.
const Version = 1

// Frame types. payload[0] of every frame.
const (
	FrameObserve     = 0x01
	FrameObserveAck  = 0x02
	FramePredict     = 0x03
	FramePredictResp = 0x04
	FrameError       = 0x05
)

// Error codes carried by FrameError. They map onto the HTTP surface's
// status classes so a client can reuse its retry policy: BadRequest and
// Conflict are permanent (fail fast), Unavailable is retryable (the
// server is draining or not yet ready — reconnect with backoff).
const (
	CodeBadRequest  = 1
	CodeConflict    = 2
	CodeUnavailable = 3
)

// MaxFramePayload bounds one frame's payload, mirroring the HTTP
// surface's observe body limit: large enough for a full 1024-event
// EventBlock with worst-case varints, small enough that a corrupt or
// adversarial length prefix cannot force a huge allocation.
const MaxFramePayload = 1 << 20

// maxStringLen bounds the tenant/stream/strategy/message strings a frame
// may carry. Tenant and stream are capped far lower by the serving API;
// this is the codec-level allocation guard.
const maxStringLen = 1 << 12

// MaxColumnLen bounds the event count of one observe frame — the
// columnar twin of the HTTP body limit (a 1 MiB JSON body holds ~40k
// events; a frame holds at most this many).
const MaxColumnLen = 1 << 16

// ErrCorrupt is wrapped by every framing and payload decoding error:
// malformed, truncated or bit-flipped input. A connection that produced
// one is unusable — framing is lost — and must be closed.
var ErrCorrupt = errors.New("corrupt wire frame")

var crcTable = crc32.MakeTable(crc32.IEEE)

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("wire: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// RemoteError is a FrameError decoded on the client: the server's
// refusal, carrying the machine-readable code, the ordinal or request id
// it refers to (0 = the connection itself) and the human message.
type RemoteError struct {
	Code uint64
	Ref  uint64
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: server error %d (ref %d): %s", e.Code, e.Ref, e.Msg)
}

// Retryable reports whether the refusal is transient (reconnect and
// retry) rather than a permanent rejection of the request itself.
func (e *RemoteError) Retryable() bool { return e.Code == CodeUnavailable }

// --- handshake ---

// WriteHandshake sends the magic and protocol version.
func WriteHandshake(w io.Writer) error {
	var buf [4 + binary.MaxVarintLen64]byte
	copy(buf[:4], Magic[:])
	n := 4 + binary.PutUvarint(buf[4:], Version)
	_, err := w.Write(buf[:n])
	return err
}

// ReadHandshake consumes and validates the peer's magic and version.
func ReadHandshake(r *bufio.Reader) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return corruptf("reading handshake magic: %v", err)
	}
	if magic != Magic {
		return corruptf("bad handshake magic %q", magic[:])
	}
	version, err := binary.ReadUvarint(r)
	if err != nil {
		return corruptf("reading handshake version: %v", err)
	}
	if version != Version {
		return corruptf("unsupported protocol version %d (have %d)", version, Version)
	}
	return nil
}

// --- framing ---

// FrameWriter frames payloads onto a buffered writer. It is not safe for
// concurrent use; connections own one writer each.
type FrameWriter struct {
	bw  *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

// NewFrameWriter returns a FrameWriter over w. The writer buffers
// internally — call Flush to push a pipelined burst onto the wire.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{bw: bufio.NewWriter(w)}
}

// WriteFrame frames one payload: uvarint length, payload, CRC-32 trailer.
func (fw *FrameWriter) WriteFrame(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxFramePayload {
		return fmt.Errorf("wire: frame payload of %d bytes outside (0, %d]", len(payload), MaxFramePayload)
	}
	n := binary.PutUvarint(fw.buf[:], uint64(len(payload)))
	if _, err := fw.bw.Write(fw.buf[:n]); err != nil {
		return err
	}
	if _, err := fw.bw.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(fw.buf[:4], crc32.Checksum(payload, crcTable))
	_, err := fw.bw.Write(fw.buf[:4])
	return err
}

// Flush pushes every buffered frame onto the wire.
func (fw *FrameWriter) Flush() error { return fw.bw.Flush() }

// FrameReader reads frames from a buffered reader into one reused
// payload buffer: the returned slice is valid only until the next
// ReadFrame, which is exactly the lifetime the decoders need.
type FrameReader struct {
	br      *bufio.Reader
	payload []byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Buffered reports how many bytes are already in the read buffer — the
// server's burst heuristic: process frames until the buffer drains, then
// ack once.
func (fr *FrameReader) Buffered() int { return fr.br.Buffered() }

// Handshake consumes and validates the peer's handshake from the same
// buffered reader the frames will flow through.
func (fr *FrameReader) Handshake() error { return ReadHandshake(fr.br) }

// ReadFrame returns the next frame's payload, CRC-verified, in a buffer
// reused across calls. A cleanly closed connection between frames
// surfaces as io.EOF; truncation inside a frame, an oversized length or
// a checksum mismatch wrap ErrCorrupt.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	length, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, corruptf("reading frame length: %v", err)
	}
	if length == 0 || length > MaxFramePayload {
		return nil, corruptf("frame length %d outside (0, %d]", length, MaxFramePayload)
	}
	if uint64(cap(fr.payload)) < length {
		fr.payload = make([]byte, length)
	}
	fr.payload = fr.payload[:length]
	if _, err := io.ReadFull(fr.br, fr.payload); err != nil {
		return nil, corruptf("reading %d-byte frame payload: %v", length, err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(fr.br, trailer[:]); err != nil {
		return nil, corruptf("reading frame checksum: %v", err)
	}
	want := binary.LittleEndian.Uint32(trailer[:])
	if got := crc32.Checksum(fr.payload, crcTable); got != want {
		return nil, corruptf("frame checksum mismatch: frame says %08x, payload hashes to %08x", want, got)
	}
	return fr.payload, nil
}

// --- payload primitives ---

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// cursor walks a frame payload. Every read reports corruption through
// err; callers check once at the end of a decode.
type cursor struct {
	p   []byte
	off int
	err error
}

func (c *cursor) fail(format string, args ...interface{}) {
	if c.err == nil {
		c.err = corruptf(format, args...)
	}
}

func (c *cursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.p[c.off:])
	if n <= 0 {
		c.fail("reading %s at offset %d", what, c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint(what string) int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.p[c.off:])
	if n <= 0 {
		c.fail("reading %s at offset %d", what, c.off)
		return 0
	}
	c.off += n
	return v
}

// bytes returns a view into the payload — no copy; the view lives only
// as long as the frame buffer. The length read is inlined rather than
// going through uvarint so the "<what> length" name is only built on the
// error path: a concatenation passed on would escape and allocate on
// every call.
func (c *cursor) bytes(what string) []byte {
	if c.err != nil {
		return nil
	}
	n, k := binary.Uvarint(c.p[c.off:])
	if k <= 0 {
		c.fail("reading %s length at offset %d", what, c.off)
		return nil
	}
	c.off += k
	if n > maxStringLen {
		c.fail("%s length %d exceeds the format limit %d", what, n, maxStringLen)
		return nil
	}
	if uint64(len(c.p)-c.off) < n {
		c.fail("%s of %d bytes truncated at offset %d", what, n, c.off)
		return nil
	}
	b := c.p[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

func (c *cursor) done(frame string) error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.p) {
		return corruptf("%d trailing bytes after %s frame", len(c.p)-c.off, frame)
	}
	return nil
}

// --- observe ---

// AppendObserve encodes one observe frame payload: the columnar
// EventBlock layout on the wire. senders and sizes must be equal length.
func AppendObserve(dst []byte, tenant, stream, strategy string, seq int64, senders, sizes []int64) []byte {
	dst = append(dst, FrameObserve)
	dst = appendString(dst, tenant)
	dst = appendString(dst, stream)
	dst = appendString(dst, strategy)
	dst = appendVarint(dst, seq)
	dst = appendUvarint(dst, uint64(len(senders)))
	for _, v := range senders {
		dst = appendVarint(dst, v)
	}
	for _, v := range sizes {
		dst = appendVarint(dst, v)
	}
	return dst
}

// ObserveView is a decoded observe frame. Tenant, Stream and Strategy
// are views into the frame buffer (valid until the next ReadFrame); the
// Senders and Sizes columns decode into scratch slices owned by the view
// and reused across frames — the "reusable block scratch" the registry's
// ObserveBlockSeq consumes directly.
type ObserveView struct {
	Tenant   []byte
	Stream   []byte
	Strategy []byte
	Seq      int64
	Senders  []int64
	Sizes    []int64
}

// Decode parses an observe frame payload (including the leading type
// byte) into the view, reusing its column scratch.
func (v *ObserveView) Decode(p []byte) error {
	if len(p) == 0 || p[0] != FrameObserve {
		return corruptf("not an observe frame")
	}
	c := cursor{p: p, off: 1}
	v.Tenant = c.bytes("tenant")
	v.Stream = c.bytes("stream")
	v.Strategy = c.bytes("strategy")
	v.Seq = c.varint("seq")
	count := c.uvarint("event count")
	if c.err == nil && count > MaxColumnLen {
		c.fail("event count %d exceeds the frame limit %d", count, MaxColumnLen)
	}
	// A varint is at least one byte, so two columns of count events need
	// 2·count remaining bytes; rejecting early keeps a hostile count from
	// forcing a large scratch growth before the payload runs out.
	if c.err == nil && uint64(len(p)-c.off) < 2*count {
		c.fail("payload of %d bytes cannot hold 2×%d column values", len(p)-c.off, count)
	}
	if c.err != nil {
		return c.err
	}
	v.Senders = decodeColumn(v.Senders, &c, int(count), "sender")
	v.Sizes = decodeColumn(v.Sizes, &c, int(count), "size")
	return c.done("observe")
}

// decodeColumn decodes count varints into dst's backing array, growing
// it only when a larger block arrives than ever before. The varint read
// is inlined so the value's name is only formatted on the error path.
func decodeColumn(dst []int64, c *cursor, count int, what string) []int64 {
	if c.err != nil {
		return dst[:0]
	}
	if cap(dst) < count {
		dst = make([]int64, count)
	}
	dst = dst[:count]
	for i := range dst {
		v, n := binary.Varint(c.p[c.off:])
		if n <= 0 {
			c.fail("reading %s column value at offset %d", what, c.off)
			return dst[:0]
		}
		c.off += n
		dst[i] = v
	}
	return dst
}

// --- observe ack ---

// AppendAck encodes a cumulative observe acknowledgment: every observe
// frame up to and including ordinal has been processed, and dups of them
// were dropped as duplicate deliveries.
func AppendAck(dst []byte, ordinal, dups uint64) []byte {
	dst = append(dst, FrameObserveAck)
	dst = appendUvarint(dst, ordinal)
	return appendUvarint(dst, dups)
}

// DecodeAck parses an ack frame payload.
func DecodeAck(p []byte) (ordinal, dups uint64, err error) {
	if len(p) == 0 || p[0] != FrameObserveAck {
		return 0, 0, corruptf("not an ack frame")
	}
	c := cursor{p: p, off: 1}
	ordinal = c.uvarint("ack ordinal")
	dups = c.uvarint("ack duplicate count")
	return ordinal, dups, c.done("ack")
}

// --- predict ---

// AppendPredict encodes one predict request: forecast the session's next
// k messages. The id is echoed on the response so pipelined requests
// match up.
func AppendPredict(dst []byte, id uint64, tenant, stream string, k int) []byte {
	dst = append(dst, FramePredict)
	dst = appendUvarint(dst, id)
	dst = appendString(dst, tenant)
	dst = appendString(dst, stream)
	return appendUvarint(dst, uint64(k))
}

// PredictView is a decoded predict request; Tenant and Stream are views
// into the frame buffer.
type PredictView struct {
	ID     uint64
	Tenant []byte
	Stream []byte
	K      int
}

// Decode parses a predict frame payload into the view.
func (v *PredictView) Decode(p []byte) error {
	if len(p) == 0 || p[0] != FramePredict {
		return corruptf("not a predict frame")
	}
	c := cursor{p: p, off: 1}
	v.ID = c.uvarint("predict id")
	v.Tenant = c.bytes("tenant")
	v.Stream = c.bytes("stream")
	k := c.uvarint("horizon")
	if c.err == nil && k > math.MaxInt32 {
		c.fail("horizon %d is implausible", k)
	}
	v.K = int(k)
	return c.done("predict")
}

// --- predict response ---

// Forecast is one future-message forecast on the wire, mirroring the
// serving API's per-stream ok flags.
type Forecast struct {
	Sender   int64
	SenderOK bool
	Size     int64
	SizeOK   bool
}

const (
	flagSenderOK = 1 << 0
	flagSizeOK   = 1 << 1
)

// AppendPredictResp encodes a predict response. found false means the
// session does not exist (the wire twin of HTTP 404 — the registry never
// creates sessions on the predict path).
func AppendPredictResp(dst []byte, id uint64, found bool, observed int64, fcs []Forecast) []byte {
	dst = append(dst, FramePredictResp)
	dst = appendUvarint(dst, id)
	if found {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendVarint(dst, observed)
	dst = appendUvarint(dst, uint64(len(fcs)))
	for _, f := range fcs {
		var flags byte
		if f.SenderOK {
			flags |= flagSenderOK
		}
		if f.SizeOK {
			flags |= flagSizeOK
		}
		dst = append(dst, flags)
		dst = appendVarint(dst, f.Sender)
		dst = appendVarint(dst, f.Size)
	}
	return dst
}

// PredictRespView is a decoded predict response; Forecasts decode into
// scratch owned by the view and reused across frames.
type PredictRespView struct {
	ID        uint64
	Found     bool
	Observed  int64
	Forecasts []Forecast
}

// Decode parses a predict response payload into the view, reusing its
// forecast scratch.
func (v *PredictRespView) Decode(p []byte) error {
	if len(p) == 0 || p[0] != FramePredictResp {
		return corruptf("not a predict response frame")
	}
	c := cursor{p: p, off: 1}
	v.ID = c.uvarint("predict id")
	var found uint64
	if c.err == nil {
		if c.off >= len(p) {
			c.fail("reading found flag")
		} else {
			found = uint64(p[c.off])
			c.off++
			if found > 1 {
				c.fail("found flag %d is not a boolean", found)
			}
		}
	}
	v.Found = found == 1
	v.Observed = c.varint("observed count")
	count := c.uvarint("forecast count")
	// A forecast is at least three bytes (flags + two varints).
	if c.err == nil && uint64(len(p)-c.off) < 3*count {
		c.fail("payload of %d bytes cannot hold %d forecasts", len(p)-c.off, count)
	}
	if c.err != nil {
		return c.err
	}
	if uint64(cap(v.Forecasts)) < count {
		v.Forecasts = make([]Forecast, count)
	}
	v.Forecasts = v.Forecasts[:count]
	for i := range v.Forecasts {
		if c.off >= len(p) {
			c.fail("reading forecast %d flags", i)
			break
		}
		flags := p[c.off]
		c.off++
		if flags&^(flagSenderOK|flagSizeOK) != 0 {
			c.fail("forecast %d carries unknown flags %02x", i, flags)
			break
		}
		v.Forecasts[i] = Forecast{
			SenderOK: flags&flagSenderOK != 0,
			SizeOK:   flags&flagSizeOK != 0,
			Sender:   c.varint("forecast sender"),
			Size:     c.varint("forecast size"),
		}
	}
	if c.err != nil {
		v.Forecasts = v.Forecasts[:0]
		return c.err
	}
	return c.done("predict response")
}

// --- error ---

// AppendError encodes a server refusal. ref names the observe ordinal or
// predict id the refusal answers (0 = the connection itself).
func AppendError(dst []byte, code, ref uint64, msg string) []byte {
	if len(msg) > maxStringLen {
		msg = msg[:maxStringLen]
	}
	dst = append(dst, FrameError)
	dst = appendUvarint(dst, code)
	dst = appendUvarint(dst, ref)
	return appendString(dst, msg)
}

// DecodeError parses an error frame payload into a RemoteError. The
// message is copied — error values outlive frame buffers.
func DecodeError(p []byte) (*RemoteError, error) {
	if len(p) == 0 || p[0] != FrameError {
		return nil, corruptf("not an error frame")
	}
	c := cursor{p: p, off: 1}
	code := c.uvarint("error code")
	ref := c.uvarint("error ref")
	msg := c.bytes("error message")
	if err := c.done("error"); err != nil {
		return nil, err
	}
	return &RemoteError{Code: code, Ref: ref, Msg: string(msg)}, nil
}
