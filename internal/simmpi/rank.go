package simmpi

import (
	"fmt"
	"math/rand"

	"mpipredict/internal/trace"
)

// AnySource matches a message from any sender, like MPI_ANY_SOURCE.
// Matching picks the queued message with the earliest arrival time, which
// approximates MPICH behaviour; note that the simulated workloads avoid
// wildcard receives so that their logical streams stay deterministic, as
// the paper's benchmarks do.
const AnySource = -1

// AnyTag matches a message with any tag, like MPI_ANY_TAG.
const AnyTag = -1

// Message describes a received message.
type Message struct {
	// Sender is the rank that sent the message.
	Sender int
	// Tag is the tag the message was sent with.
	Tag int
	// Size is the payload size in bytes.
	Size int64
	// Arrival is the simulated time (microseconds) at which the message
	// arrived at the receiver's low-level layer.
	Arrival float64
}

// envelope is a message in flight or queued at the receiver.
type envelope struct {
	sender  int
	tag     int
	size    int64
	arrival float64
	kind    trace.Kind
	op      string
}

// Rank is the per-process handle a Program uses to communicate. It must
// only be used from the program goroutine it was handed to.
type Rank struct {
	eng *Engine
	id  int

	clock float64
	rng   *rand.Rand

	state            rankState
	resumeCh         chan struct{}
	yieldCh          chan struct{}
	mailbox          []*envelope
	mailboxVersion   int
	blockedAtVersion int
	blockedOn        string

	// collectiveOp is non-empty while the rank executes a collective; the
	// messages it generates are then recorded with Kind Collective and the
	// operation name.
	collectiveOp string
}

func newRank(e *Engine, id int) *Rank {
	return &Rank{
		eng:   e,
		id:    id,
		rng:   e.rankRNG(id),
		state: stateReady,
	}
}

// ID returns the rank number (0-based).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the run (the communicator size).
func (r *Rank) Size() int { return len(r.eng.ranks) }

// start launches the rank goroutine. The goroutine waits for the engine
// to resume it before running the program.
func (r *Rank) start(program Program) {
	r.resumeCh = make(chan struct{})
	r.yieldCh = make(chan struct{})
	go func() {
		<-r.resumeCh
		defer func() {
			if p := recover(); p != nil {
				if r.eng.programErr == nil {
					r.eng.programErr = fmt.Errorf("rank %d panicked: %v", r.id, p)
				}
			}
			r.state = stateDone
			r.yieldCh <- struct{}{}
		}()
		program(r)
	}()
}

// resumeOnce hands control to the rank goroutine and waits for it to
// block or finish. Called only by the engine scheduler.
func (r *Rank) resumeOnce() {
	r.state = stateReady
	r.resumeCh <- struct{}{}
	<-r.yieldCh
}

// block suspends the rank until the scheduler resumes it. Called only
// from the rank goroutine.
func (r *Rank) block(what string) {
	r.blockedOn = what
	r.blockedAtVersion = r.mailboxVersion
	r.state = stateBlocked
	r.yieldCh <- struct{}{}
	<-r.resumeCh
}

// Compute advances the rank's clock by a compute phase of the given
// nominal duration (microseconds), subject to the configured load
// imbalance noise. Workload skeletons call it between communication
// phases; it is the main source of physical-level randomness besides
// network jitter.
func (r *Rank) Compute(us float64) {
	r.clock += r.eng.model.ComputeTime(r.rng, us)
}

// Send performs a blocking standard-mode send of size bytes to dst with
// the given tag. Eager messages return after the library overhead;
// rendezvous messages additionally charge the handshake round trip to the
// sender's clock, reproducing the latency gap Section 2.3 of the paper
// wants to eliminate.
func (r *Rank) Send(dst, tag int, size int64) {
	r.send(dst, tag, size, trace.PointToPoint, "send")
}

func (r *Rank) send(dst, tag int, size int64, kind trace.Kind, op string) {
	if dst < 0 || dst >= len(r.eng.ranks) {
		panic(fmt.Sprintf("simmpi: rank %d sends to invalid rank %d (size %d)", r.id, dst, len(r.eng.ranks)))
	}
	if size < 0 {
		size = 0
	}
	m := r.eng.model
	r.clock += m.SendOverhead()
	if m.UsesRendezvous(size) {
		r.clock += m.RendezvousHandshake(r.rng)
	}
	arrival := r.clock + m.TransferTime(r.rng, size)
	dst2 := r.eng.ranks[dst]
	env := &envelope{sender: r.id, tag: tag, size: size, arrival: arrival, kind: kind, op: op}
	dst2.mailbox = append(dst2.mailbox, env)
	dst2.mailboxVersion++
	r.eng.recordPhysical(trace.Record{
		Time:     arrival,
		Receiver: dst,
		Sender:   r.id,
		Size:     size,
		Tag:      tag,
		Kind:     kind,
		Op:       op,
	})
}

// Recv performs a blocking receive of a message from src with the given
// tag. src may be AnySource and tag may be AnyTag. The returned Message
// reports the actual sender, tag, size and arrival time.
func (r *Rank) Recv(src, tag int) Message {
	return r.recv(src, tag, "recv")
}

func (r *Rank) recv(src, tag int, op string) Message {
	for {
		idx := r.match(src, tag)
		if idx >= 0 {
			env := r.mailbox[idx]
			r.mailbox = append(r.mailbox[:idx], r.mailbox[idx+1:]...)
			if env.arrival > r.clock {
				r.clock = env.arrival
			}
			r.clock += r.eng.model.RecvOverhead()
			r.eng.recordLogical(trace.Record{
				Time:     r.clock,
				Receiver: r.id,
				Sender:   env.sender,
				Size:     env.size,
				Tag:      env.tag,
				Kind:     env.kind,
				Op:       env.op,
			})
			return Message{Sender: env.sender, Tag: env.tag, Size: env.size, Arrival: env.arrival}
		}
		r.block(fmt.Sprintf("%s(src=%d, tag=%d)", op, src, tag))
	}
}

// match returns the index of the message to deliver for a receive with
// the given source and tag, or -1 when none is queued. For a specific
// source, messages from that source are matched in send order (MPI
// pairwise non-overtaking). For AnySource, the earliest-arriving queued
// match is chosen.
func (r *Rank) match(src, tag int) int {
	best := -1
	for i, env := range r.mailbox {
		if src != AnySource && env.sender != src {
			continue
		}
		if tag != AnyTag && env.tag != tag {
			continue
		}
		if src != AnySource {
			return i // first in send order
		}
		if best == -1 || env.arrival < r.mailbox[best].arrival {
			best = i
		}
	}
	return best
}

// Sendrecv sends one message and receives another, like MPI_Sendrecv.
// Because sends never block in this runtime, the combined operation is
// deadlock-free for symmetric exchange patterns.
func (r *Rank) Sendrecv(dst, sendTag int, sendSize int64, src, recvTag int) Message {
	r.Send(dst, sendTag, sendSize)
	return r.Recv(src, recvTag)
}

// Request represents an outstanding non-blocking operation.
type Request struct {
	rank   *Rank
	isSend bool
	src    int
	tag    int
	op     string
	done   bool
	msg    Message
}

// Isend starts a non-blocking send. In this runtime the message is
// buffered immediately, so the returned request is already complete; Wait
// on it is a no-op. The send cost is charged to the sender's clock at the
// Isend call.
func (r *Rank) Isend(dst, tag int, size int64) *Request {
	r.send(dst, tag, size, trace.PointToPoint, "isend")
	return &Request{rank: r, isSend: true, done: true}
}

// Irecv posts a non-blocking receive. Matching happens when the request
// is waited on; the logical trace therefore records receives in Wait
// order, which is the order the application consumes them — the same
// notion of "logical communication" the paper uses.
func (r *Rank) Irecv(src, tag int) *Request {
	return &Request{rank: r, isSend: false, src: src, tag: tag, op: "irecv"}
}

// Wait blocks until the request completes and returns the received
// message (zero Message for send requests).
func (r *Rank) Wait(q *Request) Message {
	if q == nil {
		panic("simmpi: Wait on nil request")
	}
	if q.rank != r {
		panic("simmpi: Wait on a request owned by another rank")
	}
	if q.done {
		return q.msg
	}
	q.msg = r.recv(q.src, q.tag, q.op)
	q.done = true
	return q.msg
}

// Waitall waits for every request, in order, and returns the received
// messages.
func (r *Rank) Waitall(reqs []*Request) []Message {
	out := make([]Message, len(reqs))
	for i, q := range reqs {
		out[i] = r.Wait(q)
	}
	return out
}
