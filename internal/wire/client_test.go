package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// fakeServer accepts one wire connection, handshakes, and hands the
// framed connection to serve. It is the protocol-level stub: the real
// server lives in internal/serve.
func fakeServer(t *testing.T, serve func(fr *FrameReader, fw *FrameWriter, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := NewFrameReader(conn)
		if err := fr.Handshake(); err != nil {
			return
		}
		if err := WriteHandshake(conn); err != nil {
			return
		}
		serve(fr, NewFrameWriter(conn), conn)
	}()
	return ln.Addr().String()
}

// ackingServer acks every observe frame at its watermark and answers
// predicts with a fixed forecast.
func ackingServer(t *testing.T) string {
	return fakeServer(t, func(fr *FrameReader, fw *FrameWriter, conn net.Conn) {
		var ordinal uint64
		var ov ObserveView
		var pv PredictView
		for {
			p, err := fr.ReadFrame()
			if err != nil {
				return
			}
			switch p[0] {
			case FrameObserve:
				if err := ov.Decode(p); err != nil {
					return
				}
				ordinal++
				// Ack once per drained burst, like the real server.
				if fr.Buffered() > 0 {
					continue
				}
				fw.WriteFrame(AppendAck(nil, ordinal, 0))
				fw.Flush()
			case FramePredict:
				if err := pv.Decode(p); err != nil {
					return
				}
				fw.WriteFrame(AppendAck(nil, ordinal, 0))
				fw.WriteFrame(AppendPredictResp(nil, pv.ID, true, 9, []Forecast{{Sender: 1, SenderOK: true, Size: 64, SizeOK: true}}))
				fw.Flush()
			}
		}
	})
}

func TestClientPipelinedObserveAndPredict(t *testing.T) {
	addr := ackingServer(t)
	ctx := context.Background()
	c, err := Dial(ctx, addr, ClientOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	senders := []int64{1, 2, 3}
	sizes := []int64{10, 20, 30}
	for seq := int64(1); seq <= 20; seq++ {
		if err := c.ObserveBlock(ctx, "t", "s", "", seq, senders, sizes); err != nil {
			t.Fatalf("ObserveBlock seq %d: %v", seq, err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if frames, _ := c.Acked(); frames != 20 {
		t.Fatalf("acked %d frames, want 20", frames)
	}
	if c.sent != 20 || len(c.UnackedFrames()) != 0 {
		t.Fatalf("sent=%d unacked=%d after full flush", c.sent, len(c.UnackedFrames()))
	}

	// Predict interleaved with acks: the ack written ahead of the
	// response must be absorbed, not returned.
	if err := c.SendPredict(ctx, 0, "t", "s", 3); err != nil {
		t.Fatalf("SendPredict: %v", err)
	}
	resp, err := c.NextPredict(ctx)
	if err != nil {
		t.Fatalf("NextPredict: %v", err)
	}
	if !resp.Found || resp.Observed != 9 || len(resp.Forecasts) != 1 || resp.Forecasts[0].Sender != 1 {
		t.Fatalf("predict response: %+v", resp)
	}
}

func TestClientRetainsUnackedFramesVerbatim(t *testing.T) {
	// A server that swallows everything: frames stay in the resend
	// buffer, byte-identical to what was written.
	addr := fakeServer(t, func(fr *FrameReader, fw *FrameWriter, conn net.Conn) {
		for {
			if _, err := fr.ReadFrame(); err != nil {
				return
			}
		}
	})
	ctx := context.Background()
	c, err := Dial(ctx, addr, ClientOptions{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := AppendObserve(nil, "t", "s", "dpd", 5, []int64{4}, []int64{8})
	if err := c.ObserveBlock(ctx, "t", "s", "dpd", 5, []int64{4}, []int64{8}); err != nil {
		t.Fatal(err)
	}
	unacked := c.UnackedFrames()
	if len(unacked) != 1 || string(unacked[0]) != string(want) {
		t.Fatalf("unacked frame is not the verbatim encoding: %x vs %x", unacked, want)
	}
}

func TestClientCancelMidFrameUnwindsPromptly(t *testing.T) {
	// The server never acks, so a full window blocks the client inside a
	// read; cancelling the context must unwind it promptly with the
	// context's error, not hang on the socket.
	addr := fakeServer(t, func(fr *FrameReader, fw *FrameWriter, conn net.Conn) {
		for {
			if _, err := fr.ReadFrame(); err != nil {
				return
			}
		}
	})
	c, err := Dial(context.Background(), addr, ClientOptions{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = c.ObserveBlock(ctx, "t", "s", "", 1, []int64{1}, []int64{1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked observe returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to unwind", elapsed)
	}
	// The client is poisoned: further use reports the sticky error.
	if err := c.Flush(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("poisoned client Flush returned %v", err)
	}
}

func TestClientServerErrorFramePoisons(t *testing.T) {
	addr := fakeServer(t, func(fr *FrameReader, fw *FrameWriter, conn net.Conn) {
		if _, err := fr.ReadFrame(); err != nil {
			return
		}
		fw.WriteFrame(AppendError(nil, CodeConflict, 1, "strategy mismatch"))
		fw.Flush()
	})
	ctx := context.Background()
	c, err := Dial(ctx, addr, ClientOptions{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ObserveBlock(ctx, "t", "s", "dpd", 1, []int64{1}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	err = c.Flush(ctx)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("Flush returned %v, want a *RemoteError", err)
	}
	if remote.Code != CodeConflict || remote.Retryable() {
		t.Fatalf("remote error %+v, want non-retryable conflict", remote)
	}
}

func TestClientConnectionDropSurfacesError(t *testing.T) {
	addr := fakeServer(t, func(fr *FrameReader, fw *FrameWriter, conn net.Conn) {
		fr.ReadFrame()
		conn.Close()
	})
	ctx := context.Background()
	c, err := Dial(ctx, addr, ClientOptions{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ObserveBlock(ctx, "t", "s", "", 1, []int64{1}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err == nil {
		t.Fatal("Flush over a dropped connection must error")
	}
	if len(c.UnackedFrames()) != 1 {
		t.Fatalf("dropped connection must keep the unacked frame for resend, have %d", len(c.UnackedFrames()))
	}
}

func TestDialRejectsNonWirePeer(t *testing.T) {
	// A peer that speaks something else (here: immediate garbage) must
	// fail the handshake, which is what lets replay fall back to HTTP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
		conn.Close()
	}()
	if _, err := Dial(context.Background(), ln.Addr().String(), ClientOptions{}); err == nil {
		t.Fatal("Dial against a non-wire peer must fail")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("handshake failure %v does not wrap ErrCorrupt", err)
	}
}

func TestClientObserveValidatesColumns(t *testing.T) {
	addr := ackingServer(t)
	c, err := Dial(context.Background(), addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ObserveBlock(context.Background(), "t", "s", "", 1, []int64{1, 2}, []int64{1}); err == nil {
		t.Error("mismatched column lengths accepted")
	}
	big := make([]int64, MaxColumnLen+1)
	if err := c.ObserveBlock(context.Background(), "t", "s", "", 1, big, big); err == nil {
		t.Error("over-limit block accepted")
	}
	// Validation failures are request errors, not connection poison.
	if err := c.ObserveBlock(context.Background(), "t", "s", "", 1, []int64{1}, []int64{1}); err != nil {
		t.Errorf("client poisoned by a validation failure: %v", err)
	}
}

func TestRemoteErrorReadAsEOFBecomesUnexpected(t *testing.T) {
	// A server that closes immediately after handshake: the client's
	// blocking read must not report a bare io.EOF (which callers treat
	// as "no more frames"), but an explicit failure.
	addr := fakeServer(t, func(fr *FrameReader, fw *FrameWriter, conn net.Conn) {})
	c, err := Dial(context.Background(), addr, ClientOptions{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ObserveBlock(context.Background(), "t", "s", "", 1, []int64{1}, []int64{1})
	err = c.Flush(context.Background())
	if err == nil || errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Flush over a closed connection returned %v", err)
	}
}
