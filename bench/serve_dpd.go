package main

// serve-dpd: the mpipredictd -listen-wire stack (serve.NewServer and
// serve.NewWireServer, default strategy dpd) ingesting the paper grid's
// typical-receiver streams. Logical streams lock; noisy physical IS and
// Sweep3D streams keep relearning, so the detector runs in both of its
// states. Traffic is write-heavy: one +1..+5 predict per 16 observe
// frames.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mpipredict/internal/core"
	"mpipredict/internal/serve"
	"mpipredict/internal/strategy"
	"mpipredict/internal/wire"
)

const (
	dpdTenant       = "bench"
	dpdFrameEvents  = 64 // events per observe frame, the replay ingester's batch
	dpdPredictEvery = 16 // observe frames per predict frame
	dpdHorizon      = 5  // forecasts per predict (+1..+5)
	dpdWindow       = 64 // wire.Client observe window
	// dpdOpenRate is Phase B's fixed schedule in events per second,
	// about 40% of what one connection sustains on the reference host.
	dpdOpenRate = 100000.0
)

// wireStack is an in-process mpipredictd wire listener on loopback.
type wireStack struct {
	reg  *serve.Registry
	ws   *serve.WireServer
	ln   net.Listener
	done chan error
}

func startWireStack() (*wireStack, error) {
	reg := serve.NewRegistry(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &wireStack{reg: reg, ws: serve.NewWireServer(serve.NewServer(reg)), ln: ln, done: make(chan error, 1)}
	go func() { st.done <- st.ws.Serve(ln) }()
	return st, nil
}

func (s *wireStack) addr() string { return s.ln.Addr().String() }

// close stops the server and waits for its accept loop and connections.
func (s *wireStack) close() error {
	s.ws.Close()
	s.ln.Close() // in case Close ran before Serve registered the listener
	return <-s.done
}

type dpdEnv struct {
	sched *roundRobin
	stack *wireStack
}

func runServeDPD(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	seeds := make([]int64, p.sizes.dpdSeeds)
	for i := range seeds {
		seeds[i] = p.seed + int64(i)
	}
	env, err := timedSetups(rep, func() (*dpdEnv, error) {
		sessions, err := gridStreams(dpdTenant, seeds, p.sizes.iterations, p.workers)
		if err != nil {
			return nil, err
		}
		stack, err := startWireStack()
		if err != nil {
			return nil, err
		}
		sched := &roundRobin{chunk: dpdFrameEvents}
		for i := range sessions {
			sched.sessions = append(sched.sessions, &sessions[i])
		}
		return &dpdEnv{sched: sched, stack: stack}, nil
	}, func(e *dpdEnv) { e.stack.close() })
	if err != nil {
		return nil, err
	}
	stackA := env.stack
	defer stackA.close()
	rep.note("sessions=%d (grid seeds %d..%d)", len(env.sched.sessions), seeds[0], seeds[len(seeds)-1])

	phase := p.seconds / 2
	if p.trace {
		phase = p.seconds / 4
	}

	before := readMem()
	a, err := dpdClosedLoop(ctx, rep, stackA.addr(), env.sched, phase)
	after := readMem()
	rep.ops(a.attempted, a.failed)
	if err != nil {
		rep.problem("phase A: %v", err)
		return rep, nil
	}
	eps := setRate(rep, "events_per_s", 1, a.rate)
	rep.note("phase A: %d observe frames, %d predicts in %.3f s = %.0f events/s overall (closed loop, 1 connection, window %d)",
		a.frames, a.predicts, a.elapsed.Seconds(), float64(a.events)/a.elapsed.Seconds(), dpdWindow)
	setRuntimeLayer(rep, before, after, a.frames)
	snapA := stackA.reg.SnapshotSessions()

	if p.trace {
		if err := dpdLayers(rep, snapA, env.sched, a.frames, p.sizes.replayFrames, eps); err != nil {
			return nil, err
		}
	}

	stackB, err := startWireStack()
	if err != nil {
		return nil, err
	}
	b, lat, late, err := dpdOpenLoop(ctx, rep, stackB.addr(), env.sched, phase)
	rep.ops(b.attempted, b.failed)
	snapB := stackB.reg.SnapshotSessions()
	if cerr := stackB.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		rep.problem("phase B: %v", err)
		return rep, nil
	}
	setLatency(rep, "phase B frame due→ack", lat)
	rep.set("gen.late_p50_ms", late.p50, late.n)
	rep.set("gen.late_max_ms", late.max, late.n)
	rep.note("phase B: %d observe frames, %d predicts, open loop at %.0f events/s; generator late p50=%.4f ms max=%.4f ms",
		b.frames, b.predicts, dpdOpenRate, late.p50, late.max)
	rep.set("max_rss_mb", maxRSSMiB(), 1)

	return rep, dpdCheckSnapshots(rep, env.sched, p.workers, snapA, a.frames, snapB, b.frames)
}

// dpdPhase is one load phase's outcome.
type dpdPhase struct {
	frames    int // observe frames the server acknowledged
	events    int64
	predicts  int
	elapsed   time.Duration
	rate      *rateMeter // acknowledged events, closed loop only
	attempted int64
	failed    int64
}

// dpdClosedLoop sends frames through a wire.Client as fast as the server
// acknowledges them, for d. A predict is answered before the next observe
// is sent, as a client that reads its forecasts would.
func dpdClosedLoop(ctx context.Context, rep *report, addr string, sched *roundRobin, d time.Duration) (dpdPhase, error) {
	var ph dpdPhase
	c, err := wire.Dial(ctx, addr, wire.ClientOptions{Window: dpdWindow})
	if err != nil {
		return ph, err
	}
	defer c.Close()
	var snd, sz []int64
	var s *session
	var seq int64
	start := time.Now()
	ph.rate = &rateMeter{start: start}
	for k := 0; ; k++ {
		now := time.Now()
		acked, _ := c.Acked()
		ph.rate.observe(now, int64(acked)*dpdFrameEvents)
		if now.Sub(start) >= d {
			break
		}
		s, seq, snd, sz = sched.events(k, snd, sz)
		ph.attempted++
		if err := c.ObserveBlock(ctx, s.tenant, s.stream, "", seq, snd, sz); err != nil {
			ph.failed++
			return ph, fmt.Errorf("observe frame %d: %w", k, err)
		}
		if (k+1)%dpdPredictEvery != 0 {
			continue
		}
		ph.attempted++
		resp, err := func() (*wire.PredictRespView, error) {
			if err := c.SendPredict(ctx, uint64(k), s.tenant, s.stream, dpdHorizon); err != nil {
				return nil, err
			}
			return c.NextPredict(ctx)
		}()
		if err != nil {
			ph.failed++
			return ph, fmt.Errorf("predict after frame %d: %w", k, err)
		}
		ph.predicts++
		if !resp.Found || len(resp.Forecasts) != dpdHorizon {
			rep.problem("predict after frame %d: found=%v with %d forecasts", k, resp.Found, len(resp.Forecasts))
		}
	}
	if err := c.Flush(ctx); err != nil {
		ph.failed++
		return ph, fmt.Errorf("flushing: %w", err)
	}
	ph.elapsed = time.Since(start)
	frames, dups := c.Acked()
	ph.frames = int(frames)
	ph.events = int64(ph.frames) * dpdFrameEvents
	if dups != 0 {
		rep.problem("phase A acks report %d duplicate frames", dups)
	}
	return ph, nil
}

// dpdOpenLoop sends frames on a fixed schedule for d over one connection:
// a sender that, each time it wakes, writes every frame already due, and
// a reader (the calling goroutine) that times each frame from its due
// time to the acknowledgement covering it.
func dpdOpenLoop(ctx context.Context, rep *report, addr string, sched *roundRobin, d time.Duration) (dpdPhase, dist, dist, error) {
	var ph dpdPhase
	conn, err := (&net.Dialer{Timeout: wire.DefaultDialTimeout}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return ph, dist{}, dist{}, err
	}
	defer conn.Close()
	if err := wire.WriteHandshake(conn); err != nil {
		return ph, dist{}, dist{}, err
	}
	fr := wire.NewFrameReader(conn)
	if err := fr.Handshake(); err != nil {
		return ph, dist{}, dist{}, err
	}
	fw := wire.NewFrameWriter(conn)

	interval := time.Duration(float64(time.Second) * dpdFrameEvents / dpdOpenRate)
	n := int(d / interval)
	lat := make([]float64, n)  // written by the reader
	late := make([]float64, n) // written by the sender
	start := time.Now()
	due := func(k int) time.Time { return start.Add(time.Duration(k) * interval) }

	var sent, predictsSent int
	var sendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Half-closing ends the server's read loop after it acknowledged
		// the last burst, which ends the reader below.
		defer conn.(*net.TCPConn).CloseWrite()
		var snd, sz []int64
		var frame []byte
		var s *session
		var seq int64
		for sent < n {
			now := time.Now()
			if wait := due(sent).Sub(now); wait > 0 {
				time.Sleep(wait)
				continue
			}
			for sent < n && !due(sent).After(now) {
				s, seq, snd, sz = sched.events(sent, snd, sz)
				frame = wire.AppendObserve(frame[:0], s.tenant, s.stream, "", seq, snd, sz)
				if sendErr = fw.WriteFrame(frame); sendErr != nil {
					return
				}
				late[sent] = ms(now.Sub(due(sent)))
				sent++
				if sent%dpdPredictEvery == 0 {
					frame = wire.AppendPredict(frame[:0], uint64(sent), s.tenant, s.stream, dpdHorizon)
					if sendErr = fw.WriteFrame(frame); sendErr != nil {
						return
					}
					predictsSent++
				}
			}
			if sendErr = fw.Flush(); sendErr != nil {
				return
			}
		}
	}()

	acked, answered := 0, 0
	var dups uint64
	var readErr error
	var resp wire.PredictRespView
	for readErr == nil {
		p, err := fr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		now := time.Now()
		switch p[0] {
		case wire.FrameObserveAck:
			var ord uint64
			if ord, dups, readErr = wire.DecodeAck(p); readErr == nil {
				for ; acked < int(ord) && acked < n; acked++ {
					lat[acked] = ms(now.Sub(due(acked)))
				}
			}
		case wire.FramePredictResp:
			if readErr = resp.Decode(p); readErr == nil {
				answered++
				if !resp.Found || len(resp.Forecasts) != dpdHorizon {
					rep.problem("phase B predict %d: found=%v with %d forecasts", resp.ID, resp.Found, len(resp.Forecasts))
				}
			}
		case wire.FrameError:
			remote, err := wire.DecodeError(p)
			if err == nil {
				err = remote
			}
			readErr = err
		default:
			readErr = fmt.Errorf("unexpected frame type %#02x", p[0])
		}
	}
	if readErr != nil {
		conn.Close() // unblocks the sender
	}
	wg.Wait()

	ph.frames, ph.predicts = acked, answered
	ph.events = int64(acked) * dpdFrameEvents
	ph.attempted = int64(n + n/dpdPredictEvery)
	if err := errors.Join(sendErr, readErr); err != nil {
		// The failed operation and every one the schedule still held.
		ph.failed = ph.attempted - int64(acked+answered)
		return ph, dist{}, dist{}, err
	}
	if acked != sent || answered != predictsSent {
		ph.failed = ph.attempted - int64(acked+answered)
		return ph, dist{}, dist{}, fmt.Errorf("%d of %d frames and %d of %d predicts answered", acked, sent, answered, predictsSent)
	}
	if dups != 0 {
		rep.problem("phase B acks report %d duplicate frames", dups)
	}
	return ph, summarize(lat[:acked]), summarize(late[:sent]), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dpdCheckSnapshots checks that the served registries hold exactly the
// state of a reference registry fed the same frames in process: the
// snapshot bytes after each phase equal the reference's after the same
// number of frames.
func dpdCheckSnapshots(rep *report, sched *roundRobin, workers int, snapA []serve.SessionSnapshot, framesA int, snapB []serve.SessionSnapshot, framesB int) error {
	got := map[int][]byte{}
	for _, c := range []struct {
		frames int
		snap   []serve.SessionSnapshot
	}{{framesA, snapA}, {framesB, snapB}} {
		b, err := snapshotBytes(c.snap)
		if err != nil {
			return err
		}
		if prev, ok := got[c.frames]; ok && !bytes.Equal(prev, b) {
			rep.problem("phases A and B served %d frames each but their snapshots differ", c.frames)
		}
		got[c.frames] = b
	}
	ref := serve.NewRegistry(serve.Config{})
	lo, hi := min(framesA, framesB), max(framesA, framesB)
	fed := 0
	for _, upto := range []int{lo, hi} {
		feedRegistry(ref, sched, fed, upto, workers)
		fed = upto
		want, err := snapshotBytes(ref.SnapshotSessions())
		if err != nil {
			return err
		}
		if !bytes.Equal(got[upto], want) {
			rep.problem("served snapshot after %d frames differs from the in-process reference", upto)
		}
	}
	return nil
}

// feedRegistry observes frames [from, to) of the schedule in process,
// each session's frames in order, sessions split across workers.
func feedRegistry(reg *serve.Registry, sched *roundRobin, from, to, workers int) {
	n := len(sched.sessions)
	forEach(workers, workers, func(w int) error {
		var snd, sz []int64
		var s *session
		var seq int64
		for k := from; k < to; k++ {
			if (k%n)%workers != w {
				continue
			}
			s, seq, snd, sz = sched.events(k, snd, sz)
			if _, _, err := reg.ObserveBlockSeq(s.tenant, s.stream, "", seq, snd, sz); err != nil {
				panic(err) // unreachable: the registry's default strategy, equal columns
			}
		}
		return nil
	})
}

func snapshotBytes(snap []serve.SessionSnapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := serve.WriteSnapshot(&buf, snap); err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// dpdShadow mirrors one served session: the session's two dpd strategies
// and a core detector per stream, restored to the served state.
type dpdShadow struct {
	sender, size       *strategy.DPD
	senderDet, sizeDet *core.Detector
	start              core.Counters // lifetime counters when the replay began
}

func newDPDShadow(snap *serve.SessionSnapshot) (*dpdShadow, error) {
	sh := &dpdShadow{
		sender:    strategy.NewDPD(core.Config{}),
		size:      strategy.NewDPD(core.Config{}),
		senderDet: core.NewDetector(core.DefaultConfig()),
		sizeDet:   core.NewDetector(core.DefaultConfig()),
	}
	if snap == nil {
		return sh, nil
	}
	for _, x := range []struct {
		s       *strategy.DPD
		det     *core.Detector
		payload []byte
	}{{sh.sender, sh.senderDet, snap.Sender}, {sh.size, sh.sizeDet, snap.Size}} {
		if err := x.s.Restore(x.payload); err != nil {
			return nil, err
		}
		st, err := strategy.DecodeDPDState(x.payload)
		if err != nil {
			return nil, err
		}
		for _, v := range st.Window {
			x.det.Observe(v)
		}
	}
	sh.start = addCounters(sh.sender.Stream().Counters(), sh.size.Stream().Counters())
	return sh, nil
}

func addCounters(a, b core.Counters) core.Counters {
	return core.Counters{
		Observed: a.Observed + b.Observed, Locks: a.Locks + b.Locks, Unlocks: a.Unlocks + b.Unlocks,
		HitsWhile: a.HitsWhile + b.HitsWhile, MissesWhile: a.MissesWhile + b.MissesWhile,
	}
}

// stateSplit accumulates dpd observe time by the predictor's state before
// each call.
type stateSplit struct {
	lockedNs, learningNs       float64
	lockedCalls, learningCalls int
}

// observe feeds xs to s, timing runs of calls made in the same state:
// the clock is read only when the state changes, so the split costs
// little more than the calls.
func (sp *stateSplit) observe(s *strategy.DPD, xs []int64) {
	pred := s.Stream()
	locked := pred.State() == core.Locked
	runStart, runLen := time.Now(), 0
	flush := func(now time.Time) {
		if locked {
			sp.lockedNs += float64(now.Sub(runStart))
			sp.lockedCalls += runLen
		} else {
			sp.learningNs += float64(now.Sub(runStart))
			sp.learningCalls += runLen
		}
		runStart, runLen = now, 0
	}
	for _, x := range xs {
		if l := pred.State() == core.Locked; l != locked {
			flush(time.Now())
			locked = l
		}
		s.Observe(x)
		runLen++
	}
	flush(time.Now())
}

func (sp *stateSplit) report(rep *report) {
	calls := sp.lockedCalls + sp.learningCalls
	rep.set("core.observe_locked_ns", sp.lockedNs/float64(max(sp.lockedCalls, 1)), sp.lockedCalls)
	rep.set("core.observe_learning_ns", sp.learningNs/float64(max(sp.learningCalls, 1)), sp.learningCalls)
	rep.set("core.locked_share", float64(sp.lockedCalls)/float64(max(calls, 1)), calls)
}

// dpdLayers replays frames [from, from+k) layer by layer and reports the
// per-layer metrics.
func dpdLayers(rep *report, snap []serve.SessionSnapshot, sched *roundRobin, from, k int, eps float64) error {
	frames := encodeFrames(sched, from, k)
	var split stateSplit
	var counters core.Counters
	t, err := tracedReplays(rep, overheadPairs, func(t *tracer) error {
		var err error
		split, counters, err = dpdReplay(snap, frames, t)
		return err
	})
	if err != nil {
		return err
	}

	tt := totals(t.spans)
	events := float64(k * dpdFrameEvents)
	read, decode := total(tt, "wire.read_frame"), total(tt, "wire.decode")
	block, forecast := total(tt, "serve.observe_block"), total(tt, "serve.forecast")
	obs, pred := total(tt, "strategy.observe"), total(tt, "strategy.predict")
	det := total(tt, "core.detector_observe")
	rep.set("wire.read_frame_ns", read.perSpan(), read.spans)
	rep.set("wire.decode_ns", decode.perSpan(), decode.spans)
	rep.set("serve.observe_block_ns_per_event", block.dur/events, block.calls)
	rep.set("serve.registry_self_ns_per_event", block.self/events, block.calls)
	rep.set("serve.forecast_ns", forecast.perSpan(), forecast.spans)
	layers := (read.dur + decode.dur + block.dur + forecast.dur) / events
	rep.set("serve.glue_ns_per_event", 1e9/eps-layers, block.calls)
	rep.set("strategy.observe_ns", obs.perCall(), obs.calls)
	rep.set("strategy.predict_ns", pred.perCall(), pred.calls)
	rep.set("strategy.calls", float64(obs.calls+pred.calls), 1)
	rep.set("core.detector_observe_ns", det.perCall(), det.calls)
	split.report(rep)
	rep.set("core.locks", float64(counters.Locks), 1)
	rep.set("core.unlocks", float64(counters.Unlocks), 1)
	rep.note("strategy share of serve.observe_block: %.3f", obs.dur/max(block.dur, 1))
	return nil
}

// encodeFrames frames observe frames [from, from+k) of the schedule and
// their predicts, as the sender would put them on the wire.
func encodeFrames(sched *roundRobin, from, k int) []byte {
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	var snd, sz []int64
	var frame []byte
	var s *session
	var seq int64
	for i := from; i < from+k; i++ {
		s, seq, snd, sz = sched.events(i, snd, sz)
		frame = wire.AppendObserve(frame[:0], s.tenant, s.stream, "", seq, snd, sz)
		fw.WriteFrame(frame) // a bytes.Buffer never fails
		if (i+1)%dpdPredictEvery == 0 {
			fw.WriteFrame(wire.AppendPredict(frame[:0], uint64(i), s.tenant, s.stream, dpdHorizon))
		}
	}
	fw.Flush()
	return buf.Bytes()
}

// dpdReplay reads frames through FrameReader.ReadFrame and
// ObserveView.Decode into Registry.ObserveBlockSeq and ForecastInto on a
// registry restored from snap, and feeds the same events into shadow dpd
// strategies and core detectors restored to the same state. It returns
// the dpd observe time split by state and the shadows' lock and unlock
// counts.
func dpdReplay(snap []serve.SessionSnapshot, frames []byte, t *tracer) (stateSplit, core.Counters, error) {
	var split stateSplit
	var counters core.Counters
	reg := serve.NewRegistry(serve.Config{})
	if err := reg.RestoreSessions(snap); err != nil {
		return split, counters, err
	}
	shadows := map[string]*dpdShadow{}
	for i := range snap {
		sh, err := newDPDShadow(&snap[i])
		if err != nil {
			return split, counters, err
		}
		shadows[snap[i].Stream] = sh
	}
	shadowOf := func(stream string) *dpdShadow {
		if shadows[stream] == nil {
			shadows[stream], _ = newDPDShadow(nil)
		}
		return shadows[stream]
	}
	keys := map[string]string{}
	key := func(b []byte) string {
		if s, ok := keys[string(b)]; ok {
			return s
		}
		keys[string(b)] = string(b)
		return string(b)
	}

	fr := wire.NewFrameReader(bytes.NewReader(frames))
	var ov wire.ObserveView
	var pv wire.PredictView
	forecasts := make([]serve.Forecast, 0, dpdHorizon)
	for req := int64(0); ; req++ {
		root := t.begin("frame", -1, req, 0)
		id := t.begin("wire.read_frame", root, req, 1)
		p, err := fr.ReadFrame()
		t.end(id)
		if err == io.EOF {
			t.end(root)
			break
		}
		if err != nil {
			return split, counters, err
		}
		switch p[0] {
		case wire.FrameObserve:
			id = t.begin("wire.decode", root, req, 1)
			err := ov.Decode(p)
			t.end(id)
			if err != nil {
				return split, counters, err
			}
			tenant, stream, n := key(ov.Tenant), key(ov.Stream), len(ov.Senders)
			id = t.begin("serve.observe_block", root, req, n)
			_, _, err = reg.ObserveBlockSeq(tenant, stream, "", ov.Seq, ov.Senders, ov.Sizes)
			t.end(id)
			if err != nil {
				return split, counters, err
			}
			sh := shadowOf(stream)
			sid := t.shadow("strategy.observe", id, req, 2*n)
			if t.on {
				split.observe(sh.sender, ov.Senders)
				split.observe(sh.size, ov.Sizes)
			} else {
				for i := range ov.Senders {
					sh.sender.Observe(ov.Senders[i])
					sh.size.Observe(ov.Sizes[i])
				}
			}
			t.end(sid)
			did := t.shadow("core.detector_observe", sid, req, 2*n)
			for i := range ov.Senders {
				sh.senderDet.Observe(ov.Senders[i])
				sh.sizeDet.Observe(ov.Sizes[i])
			}
			t.end(did)
		case wire.FramePredict:
			if err := pv.Decode(p); err != nil {
				return split, counters, err
			}
			stream, horizon := key(pv.Stream), int(pv.K)
			id = t.begin("serve.forecast", root, req, 1)
			_, _, found := reg.ForecastInto(forecasts[:0], key(pv.Tenant), stream, horizon)
			t.end(id)
			if !found {
				return split, counters, fmt.Errorf("replay predict %d: no session %q", pv.ID, stream)
			}
			sh := shadowOf(stream)
			sid := t.shadow("strategy.predict", id, req, 2*horizon)
			for ahead := 1; ahead <= horizon; ahead++ {
				sh.sender.Predict(ahead)
				sh.size.Predict(ahead)
			}
			t.end(sid)
		}
		t.end(root)
	}
	for _, sh := range shadows {
		now := addCounters(sh.sender.Stream().Counters(), sh.size.Stream().Counters())
		counters.Locks += now.Locks - sh.start.Locks
		counters.Unlocks += now.Unlocks - sh.start.Unlocks
	}
	return split, counters, nil
}
