package serve

// The binary wire face of the registry: the internal/wire protocol
// served over raw TCP, sharing everything operational with the HTTP
// surface — the same Registry (so HTTP and wire clients see one session
// space and one seq-dedup high-water mark per stream), the same
// readiness flags, the same in-flight admission semaphore and the same
// panic accounting.
//
// The shape differs from HTTP where the protocols differ:
//
//   - Admission is blocking, not shedding. HTTP rejects the 257th
//     request with 429 because the client already paid for a whole
//     request; a wire connection just stops reading instead, and TCP
//     backpressure pushes the wait back into the client's send window.
//     One semaphore slot covers a whole buffered burst of frames, so
//     the gate costs one channel op per burst, not per frame.
//   - Acks are cumulative. The server processes every frame already
//     buffered on the connection, then acknowledges once at the
//     watermark (observe-frame ordinal + cumulative duplicate count).
//   - Request errors close the connection. HTTP's 400/409 are
//     per-request; on a pipelined binary stream a client that sends an
//     invalid frame is broken, so the server answers with a FrameError
//     naming the offending ordinal and hangs up. Clients treat
//     CodeUnavailable as retryable (reconnect with backoff) and
//     everything else as fatal, mirroring the HTTP retry policy.

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"mpipredict/internal/wire"
)

// observeCode maps a refusal class to its wire error code, the twin of
// the HTTP listener's observeStatus.
var observeCode = [...]uint64{refusedBad: wire.CodeBadRequest, refusedConflict: wire.CodeConflict}

// maxInternedKeys bounds the per-connection string-intern table. A
// connection replaying a bounded session set stays far below it; a
// hostile client cycling through unbounded key names gets its table
// reset, costing it re-interning, not the server memory.
const maxInternedKeys = 4096

// WireServer serves the binary wire protocol for a Server's registry.
type WireServer struct {
	srv *Server

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	closed atomic.Bool

	connections  atomic.Int64 // currently open
	connsTotal   atomic.Int64 // ever accepted
	frames       atomic.Int64 // frames read (all types)
	observes     atomic.Int64 // observe frames applied (incl. duplicates)
	predicts     atomic.Int64 // predict frames answered
	decodeErrors atomic.Int64 // corrupt frames / failed handshakes
	resentBatch  atomic.Int64 // duplicate observe frames absorbed by seq dedup
	rejUnready   atomic.Int64 // connections refused while not ready/draining
}

// NewWireServer returns a wire server sharing the HTTP server's
// registry, gates and metrics, and publishes the "wire" composite on
// the server's /debug/vars.
func NewWireServer(s *Server) *WireServer {
	ws := &WireServer{srv: s, conns: make(map[net.Conn]struct{})}
	s.PublishVar("wire", func() interface{} {
		return map[string]interface{}{
			"connections":       ws.connections.Load(),
			"connections_total": ws.connsTotal.Load(),
			"frames":            ws.frames.Load(),
			"observe_frames":    ws.observes.Load(),
			"predict_frames":    ws.predicts.Load(),
			"decode_errors":     ws.decodeErrors.Load(),
			"resent_batches":    ws.resentBatch.Load(),
			"rejected_unready":  ws.rejUnready.Load(),
		}
	})
	return ws
}

// Serve accepts wire connections on ln until Shutdown (or a fatal
// listener error). Like http.Server.Serve it blocks; run it in its own
// goroutine. After Shutdown it returns nil.
func (ws *WireServer) Serve(ln net.Listener) error {
	ws.mu.Lock()
	ws.ln = ln
	ws.mu.Unlock()
	// Advertise on /healthz so clients probing the HTTP surface discover
	// the wire listener and auto-negotiate.
	ws.srv.SetWireAddr(ln.Addr().String())
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ws.closed.Load() {
				return nil
			}
			return fmt.Errorf("wire accept: %w", err)
		}
		ws.connsTotal.Add(1)
		ws.connections.Add(1)
		ws.mu.Lock()
		ws.conns[conn] = struct{}{}
		ws.mu.Unlock()
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			defer ws.connections.Add(-1)
			defer func() {
				ws.mu.Lock()
				delete(ws.conns, conn)
				ws.mu.Unlock()
			}()
			ws.handleConn(conn)
		}()
	}
}

// Shutdown closes the listener and waits for every open connection to
// finish its current burst and notice the drain. An idle client holding
// its connection open blocks Shutdown indefinitely — a daemon draining
// on a deadline pairs it with a watchdog that calls Close.
func (ws *WireServer) Shutdown() {
	ws.closed.Store(true)
	ws.mu.Lock()
	if ws.ln != nil {
		ws.ln.Close()
	}
	ws.mu.Unlock()
	ws.wg.Wait()
}

// Close is the impatient Shutdown: it also force-closes every open
// connection, cutting off clients mid-read the way http.Server.Close
// does. Safe to call concurrently with Shutdown to bound its wait.
func (ws *WireServer) Close() {
	ws.closed.Store(true)
	ws.mu.Lock()
	if ws.ln != nil {
		ws.ln.Close()
	}
	for conn := range ws.conns {
		conn.Close()
	}
	ws.mu.Unlock()
	ws.wg.Wait()
}

// acquire takes one admission slot (blocking — TCP backpressure is the
// wire's load shedding) and returns its release.
func (ws *WireServer) acquire() func() {
	if ws.srv.inflight == nil {
		return func() {}
	}
	ws.srv.inflight <- struct{}{}
	return func() { <-ws.srv.inflight }
}

// unavailable reports why the server should not take wire traffic right
// now, or "" when it should.
func (ws *WireServer) unavailable() string {
	switch {
	case ws.closed.Load() || ws.srv.draining.Load():
		return "draining"
	case ws.srv.notReady.Load():
		return "starting"
	default:
		return ""
	}
}

// wireConn is the per-connection state: decode views whose scratch is
// reused across frames, the string-intern table that keeps steady-state
// observe processing allocation-free, and the ack watermark.
type wireConn struct {
	ws *WireServer
	fr *wire.FrameReader
	fw *wire.FrameWriter

	ov        wire.ObserveView
	pv        wire.PredictView
	intern    map[string]string
	forecasts []Forecast
	wfcs      []wire.Forecast
	enc       []byte

	ordinal uint64 // observe frames processed on this connection
	dups    uint64 // cumulative duplicate deliveries absorbed
	acked   uint64 // last watermark written
}

// key interns a decoded byte view as a string without allocating on the
// steady-state path (the map lookup on string(b) does not copy).
func (wc *wireConn) key(b []byte) string {
	if s, ok := wc.intern[string(b)]; ok {
		return s
	}
	if len(wc.intern) >= maxInternedKeys {
		wc.intern = make(map[string]string, 64)
	}
	s := string(b)
	wc.intern[s] = s
	return s
}

func (ws *WireServer) handleConn(conn net.Conn) {
	defer conn.Close()
	// The wire twin of the HTTP envelope's recovery: a panic while
	// serving one connection kills that connection, not the daemon, and
	// lands in the same recovered_panics counter.
	defer func() {
		if v := recover(); v != nil {
			ws.srv.recoveredPanics.Add(1)
		}
	}()
	fr := wire.NewFrameReader(conn)
	if err := fr.Handshake(); err != nil {
		ws.decodeErrors.Add(1)
		return
	}
	if err := wire.WriteHandshake(conn); err != nil {
		return
	}
	fw := wire.NewFrameWriter(conn)
	if reason := ws.unavailable(); reason != "" {
		ws.rejUnready.Add(1)
		fw.WriteFrame(wire.AppendError(nil, wire.CodeUnavailable, 0, reason))
		fw.Flush()
		return
	}
	wc := &wireConn{
		ws:        ws,
		fr:        fr,
		fw:        fw,
		intern:    make(map[string]string, 64),
		forecasts: make([]Forecast, 0, MaxHorizon),
	}
	for {
		p, err := fr.ReadFrame()
		if err != nil {
			if err != io.EOF {
				ws.decodeErrors.Add(1)
			}
			return
		}
		// One admission slot and one ack per buffered burst.
		release := ws.acquire()
		ok := wc.handleFrame(p)
		for ok && fr.Buffered() > 0 {
			if p, err = fr.ReadFrame(); err != nil {
				ws.decodeErrors.Add(1)
				release()
				return
			}
			ok = wc.handleFrame(p)
		}
		release()
		if wc.ordinal > wc.acked {
			wc.enc = wire.AppendAck(wc.enc[:0], wc.ordinal, wc.dups)
			if fw.WriteFrame(wc.enc) != nil {
				return
			}
			wc.acked = wc.ordinal
		}
		if fw.Flush() != nil || !ok {
			return
		}
		if reason := ws.unavailable(); reason != "" {
			// Drain started under a live connection: tell the client to
			// go elsewhere, after acking what was already applied.
			fw.WriteFrame(wire.AppendError(nil, wire.CodeUnavailable, 0, reason))
			fw.Flush()
			return
		}
	}
}

// handleFrame dispatches one frame; false means the connection must
// close (a FrameError has been queued where one applies).
func (wc *wireConn) handleFrame(p []byte) bool {
	wc.ws.frames.Add(1)
	switch p[0] {
	case wire.FrameObserve:
		return wc.handleObserve(p)
	case wire.FramePredict:
		return wc.handlePredict(p)
	default:
		wc.fail(wire.CodeBadRequest, 0, fmt.Sprintf("unexpected frame type %#02x", p[0]))
		return false
	}
}

// fail queues a FrameError; the connection closes after the flush.
func (wc *wireConn) fail(code, ref uint64, msg string) {
	wc.enc = wire.AppendError(wc.enc[:0], code, ref, msg)
	wc.fw.WriteFrame(wc.enc)
}

func (wc *wireConn) handleObserve(p []byte) bool {
	ws := wc.ws
	ref := wc.ordinal + 1 // the ordinal this frame would get
	if err := wc.ov.Decode(p); err != nil {
		ws.decodeErrors.Add(1)
		wc.fail(wire.CodeBadRequest, ref, fmt.Sprintf("decoding observe frame: %v", err))
		return false
	}
	ov := &wc.ov
	// The views are checked before wc.key interns them, so a refused frame
	// costs the table nothing.
	if class, msg := checkObserve(ov.Tenant, ov.Stream, ov.Strategy, ov.Seq, len(ov.Senders)); class != notRefused {
		wc.fail(observeCode[class], ref, msg)
		return false
	}
	_, duplicate, err := ws.srv.reg.ObserveBlockSeq(wc.key(ov.Tenant), wc.key(ov.Stream), wc.key(ov.Strategy), ov.Seq, ov.Senders, ov.Sizes)
	if err != nil {
		// checkObserve leaves only a strategy conflict to the registry.
		wc.fail(observeCode[refusedConflict], ref, err.Error())
		return false
	}
	wc.ordinal++
	ws.observes.Add(1)
	if duplicate {
		wc.dups++
		ws.resentBatch.Add(1)
	}
	return true
}

func (wc *wireConn) handlePredict(p []byte) bool {
	ws := wc.ws
	if err := wc.pv.Decode(p); err != nil {
		ws.decodeErrors.Add(1)
		wc.fail(wire.CodeBadRequest, 0, fmt.Sprintf("decoding predict frame: %v", err))
		return false
	}
	pv := &wc.pv
	if len(pv.Tenant) == 0 || len(pv.Stream) == 0 {
		wc.fail(wire.CodeBadRequest, pv.ID, "tenant and stream are required")
		return false
	}
	k := pv.K
	if k == 0 {
		k = DefaultHorizon
	}
	if k < 1 || k > MaxHorizon {
		wc.fail(wire.CodeBadRequest, pv.ID, fmt.Sprintf("k must be in 1..%d", MaxHorizon))
		return false
	}
	forecasts, observed, found := ws.srv.reg.ForecastInto(wc.forecasts[:0], wc.key(pv.Tenant), wc.key(pv.Stream), k)
	wc.forecasts = forecasts[:0]
	if cap(wc.wfcs) < len(forecasts) {
		wc.wfcs = make([]wire.Forecast, len(forecasts))
	}
	wc.wfcs = wc.wfcs[:len(forecasts)]
	for i, f := range forecasts {
		wc.wfcs[i] = wire.Forecast{Sender: f.Sender, SenderOK: f.SenderOK, Size: f.Size, SizeOK: f.SizeOK}
	}
	if !found {
		// The wire twin of HTTP 404: found=false, not an error frame —
		// asking about an absent session is a valid question.
		wc.wfcs = wc.wfcs[:0]
	}
	ws.predicts.Add(1)
	wc.enc = wire.AppendPredictResp(wc.enc[:0], pv.ID, found, observed, wc.wfcs)
	return wc.fw.WriteFrame(wc.enc) == nil
}
