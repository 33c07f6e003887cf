package wire

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"
)

// ClientOptions configure Dial.
type ClientOptions struct {
	// Window is the maximum number of observe frames in flight (written
	// but not yet acknowledged). When the window is full ObserveBlock
	// flushes and blocks until the server's next watermark opens room —
	// the protocol's only client-side backpressure. 0 means DefaultWindow.
	Window int

	// DialTimeout bounds the TCP connect + handshake. 0 means
	// DefaultDialTimeout.
	DialTimeout time.Duration
}

// DefaultWindow is the observe pipeline depth: deep enough that one ack
// round-trip overlaps many frames, shallow enough that a reconnect
// resend stays cheap.
const DefaultWindow = 64

// DefaultDialTimeout bounds connection setup.
const DefaultDialTimeout = 5 * time.Second

// Client is one wire connection. It pipelines observe frames up to its
// window, retains every unacknowledged frame verbatim so a caller can
// resend after reconnecting, and multiplexes acks, predict responses
// and server errors arriving on the same connection. Not safe for
// concurrent use — callers own one client per goroutine, matching the
// one-connection-per-replay-session model.
type Client struct {
	conn   net.Conn
	fw     *FrameWriter
	fr     *FrameReader
	window int

	enc []byte // encode scratch for predict frames (observe frames are retained, so they get fresh buffers)

	sent    uint64   // observe frames written on this connection
	acked   uint64   // server watermark: frames processed
	dups    uint64   // cumulative duplicate deliveries the server dropped
	unacked [][]byte // retained frames; unacked[0] has ordinal acked+1

	resp    PredictRespView
	hasResp bool

	err error // sticky: any transport or protocol failure poisons the client
}

// Dial connects, handshakes and returns a ready client.
func Dial(ctx context.Context, addr string, opts ClientOptions) (*Client, error) {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = DefaultDialTimeout
	}
	dialCtx, cancel := context.WithTimeout(ctx, opts.DialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dialCtx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:   conn,
		fw:     NewFrameWriter(conn),
		fr:     NewFrameReader(conn),
		window: opts.Window,
	}
	disarm := c.arm(dialCtx)
	err = func() error {
		if err := WriteHandshake(conn); err != nil {
			return fmt.Errorf("wire: sending handshake: %w", err)
		}
		return ReadHandshake(c.fr.br)
	}()
	disarm()
	if err != nil {
		conn.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return c, nil
}

// arm makes blocking conn I/O abort when ctx is cancelled, by slamming
// the deadline into the past. The returned disarm must be called before
// the next armed operation; it also clears any deadline it planted so a
// raced cancellation cannot leak into later calls.
func (c *Client) arm(ctx context.Context) (disarm func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetDeadline(time.Unix(1, 0))
	})
	return func() {
		if !stop() {
			// The cancel fired (or is firing): the client is poisoned
			// anyway, but reset the deadline so Close-side reads in
			// tests do not trip over it.
			c.conn.SetDeadline(time.Time{})
		}
	}
}

// fail records the first error and poisons the client.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// checked translates an I/O error under an armed context into the
// context's error when the cancellation caused it.
func checked(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// Err returns the sticky error, if any.
func (c *Client) Err() error { return c.err }

// Acked returns the server's cumulative watermark: observe frames
// processed and duplicate deliveries dropped on this connection.
func (c *Client) Acked() (frames, dups uint64) { return c.acked, c.dups }

// UnackedFrames returns the retained encodings of every observe frame
// the server has not yet acknowledged, oldest first. The slices are the
// client's own retained copies — callers resending after a reconnect
// pass them to ObserveFrame on the new connection and must not mutate
// them.
func (c *Client) UnackedFrames() [][]byte { return c.unacked }

// ObserveBlock encodes one columnar observe frame and pipelines it. The
// call only blocks when the window is full, waiting for the server's
// watermark to advance.
func (c *Client) ObserveBlock(ctx context.Context, tenant, stream, strategy string, seq int64, senders, sizes []int64) error {
	if c.err != nil {
		return c.err
	}
	if len(senders) != len(sizes) {
		return fmt.Errorf("wire: column length mismatch: %d senders, %d sizes", len(senders), len(sizes))
	}
	if len(senders) > MaxColumnLen {
		return fmt.Errorf("wire: block of %d events exceeds the frame limit %d", len(senders), MaxColumnLen)
	}
	frame := AppendObserve(nil, tenant, stream, strategy, seq, senders, sizes)
	return c.ObserveFrame(ctx, frame)
}

// ObserveFrame pipelines a pre-encoded observe frame verbatim — the
// resend path after a reconnect, and the tail of ObserveBlock.
func (c *Client) ObserveFrame(ctx context.Context, frame []byte) error {
	if c.err != nil {
		return c.err
	}
	disarm := c.arm(ctx)
	defer disarm()
	if err := c.fw.WriteFrame(frame); err != nil {
		return c.fail(checked(ctx, err))
	}
	c.sent++
	c.unacked = append(c.unacked, frame)
	for c.sent-c.acked >= uint64(c.window) {
		if err := c.fw.Flush(); err != nil {
			return c.fail(checked(ctx, err))
		}
		if err := c.readOne(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes every buffered frame and blocks until the server has
// acknowledged all of them.
func (c *Client) Flush(ctx context.Context) error {
	if c.err != nil {
		return c.err
	}
	disarm := c.arm(ctx)
	defer disarm()
	if err := c.fw.Flush(); err != nil {
		return c.fail(checked(ctx, err))
	}
	for c.acked < c.sent {
		if err := c.readOne(ctx); err != nil {
			return err
		}
	}
	return nil
}

// SendPredict pipelines one predict request; NextPredict returns the
// responses in order. The id is echoed by the server.
func (c *Client) SendPredict(ctx context.Context, id uint64, tenant, stream string, k int) error {
	if c.err != nil {
		return c.err
	}
	disarm := c.arm(ctx)
	defer disarm()
	c.enc = AppendPredict(c.enc[:0], id, tenant, stream, k)
	if err := c.fw.WriteFrame(c.enc); err != nil {
		return c.fail(checked(ctx, err))
	}
	return nil
}

// NextPredict flushes and blocks for the next predict response. The
// returned view is reused by the following NextPredict call. Acks
// interleaved ahead of the response are absorbed into the watermark.
func (c *Client) NextPredict(ctx context.Context) (*PredictRespView, error) {
	if c.err != nil {
		return nil, c.err
	}
	disarm := c.arm(ctx)
	defer disarm()
	if err := c.fw.Flush(); err != nil {
		return nil, c.fail(checked(ctx, err))
	}
	for {
		c.hasResp = false
		if err := c.readOne(ctx); err != nil {
			return nil, err
		}
		if c.hasResp {
			return &c.resp, nil
		}
	}
}

// readOne consumes one server frame and dispatches it; callers must
// have armed the context. Server error frames poison the client with a
// *RemoteError.
func (c *Client) readOne(ctx context.Context) error {
	p, err := c.fr.ReadFrame()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return c.fail(checked(ctx, err))
	}
	switch p[0] {
	case FrameObserveAck:
		ordinal, dups, err := DecodeAck(p)
		if err != nil {
			return c.fail(err)
		}
		if ordinal < c.acked || ordinal > c.sent {
			return c.fail(corruptf("ack watermark %d outside [%d, %d]", ordinal, c.acked, c.sent))
		}
		c.unacked = c.unacked[ordinal-c.acked:]
		c.acked = ordinal
		c.dups = dups
		return nil
	case FramePredictResp:
		if err := c.resp.Decode(p); err != nil {
			return c.fail(err)
		}
		c.hasResp = true
		return nil
	case FrameError:
		remote, err := DecodeError(p)
		if err != nil {
			return c.fail(err)
		}
		return c.fail(remote)
	default:
		return c.fail(corruptf("unexpected frame type %02x from server", p[0]))
	}
}

// Close tears the connection down. The client is unusable afterwards.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	if c.err == nil {
		c.err = fmt.Errorf("wire: client closed")
	}
	return err
}
