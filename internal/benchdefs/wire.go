package benchdefs

// The wire benchmark bodies: a real WireServer on a loopback TCP
// listener driven by a pipelined wire.Client — sockets included, unlike
// the httptest-backed serve-* entries, because the wire protocol's
// whole claim is that its framing and pipelining amortize the socket
// round-trips the HTTP path pays per request.
//
// The environment pins the markov1 strategy: the dpd model alone costs
// more per event than the entire wire round-trip, so a dpd-backed wire
// benchmark would measure the model and hide the protocol. The matching
// HTTP twin is NewServeBenchEnvFor("markov1"), committed alongside so
// the snapshots compare the two transports on equal model cost.

import (
	"context"
	"fmt"
	"net"

	"mpipredict/internal/serve"
	"mpipredict/internal/wire"
)

// WireBenchStrategy backs the wire benchmark sessions. markov1 is the
// cheapest useful model, leaving the protocol as the dominant cost.
const WireBenchStrategy = "markov1"

// wirePredictDepth is the predict pipeline depth of PredictWire: how
// many requests stay in flight so one response round-trip overlaps many
// requests.
const wirePredictDepth = 32

// WireBenchEnv is a warmed prediction service behind a live wire
// listener: one locked session, one pipelined client connection.
type WireBenchEnv struct {
	Registry *serve.Registry

	ws  *serve.WireServer
	ln  net.Listener
	c   *wire.Client
	ctx context.Context

	blockSenders []int64
	blockSizes   []int64
	seq          int64

	predSent uint64
	predRecv uint64
}

// NewWireBenchEnv starts the listener, dials the client and warms the
// session past the locking transient. Callers must Close it.
func NewWireBenchEnv() (*WireBenchEnv, error) {
	reg := serve.NewRegistry(serve.Config{Strategy: WireBenchStrategy})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(reg)
	ws := serve.NewWireServer(srv)
	srv.SetWireAddr(ln.Addr().String())
	go ws.Serve(ln)

	env := &WireBenchEnv{
		Registry:     reg,
		ws:           ws,
		ln:           ln,
		ctx:          context.Background(),
		blockSenders: make([]int64, ServeBenchBatch),
		blockSizes:   make([]int64, ServeBenchBatch),
	}
	for i := 0; i < ServeBenchBatch; i++ {
		env.blockSenders[i] = int64(i % ServeBenchPeriod)
		env.blockSizes[i] = int64(100 * (i % ServeBenchPeriod))
	}
	for i := 0; i < serveWarmEvents(); i++ {
		v := int64(i % ServeBenchPeriod)
		if _, _, err := reg.ObserveBlockSeq("bench", "s", "", 0, []int64{v}, []int64{100 * v}); err != nil {
			ws.Close()
			return nil, err
		}
	}

	env.c, err = wire.Dial(env.ctx, ln.Addr().String(), wire.ClientOptions{})
	if err != nil {
		ws.Close()
		return nil, err
	}
	return env, nil
}

// ObserveBlockWire pipelines one sequenced 64-event columnar observe
// frame — the wire twin of ObserveBlockHTTP. It only blocks when the
// client window is full.
func (e *WireBenchEnv) ObserveBlockWire() error {
	e.seq++
	return e.c.ObserveBlock(e.ctx, "bench", "s", "", e.seq, e.blockSenders, e.blockSizes)
}

// FlushObserves drains the observe pipeline; benchmark loops call it
// after their last iteration so every pipelined event is both delivered
// and inside the measured interval.
func (e *WireBenchEnv) FlushObserves() error {
	return e.c.Flush(e.ctx)
}

// PredictWire issues one +1..+5 predict query with wirePredictDepth
// requests kept in flight — the wire twin of PredictHTTP, pipelined the
// way a wire client is meant to query.
func (e *WireBenchEnv) PredictWire() error {
	for e.predSent-e.predRecv < wirePredictDepth {
		e.predSent++
		if err := e.c.SendPredict(e.ctx, e.predSent, "bench", "s", 5); err != nil {
			return err
		}
	}
	resp, err := e.c.NextPredict(e.ctx)
	if err != nil {
		return err
	}
	e.predRecv++
	if !resp.Found || len(resp.Forecasts) != 5 {
		return fmt.Errorf("predict response found=%v with %d forecasts, want 5", resp.Found, len(resp.Forecasts))
	}
	return nil
}

// Close tears down the client, the listener and every server
// connection.
func (e *WireBenchEnv) Close() {
	e.c.Close()
	e.ws.Close()
}
