package simmpi

import (
	"math/bits"
	"testing"

	"mpipredict/internal/trace"
)

// The collectives below are test programs: no workload calls them, but
// they drive the runtime's collSend/collRecv primitives through the
// dissemination, recursive-doubling, linear and ring patterns that Bcast,
// Reduce and Alltoall do not, on the tag slots the runtime leaves free
// for them.
const (
	tagBarrier   = 1 << 20
	tagAllreduce = 1<<20 + 3
	tagGather    = 1<<20 + 4
	tagScatter   = 1<<20 + 5
	tagAllgather = 1<<20 + 6
)

// controlSize is the payload size used for pure synchronisation messages
// (barrier and similar), in bytes.
const controlSize = 4

// barrier blocks until every rank has entered it. It uses the
// dissemination algorithm: ceil(log2 p) rounds of exchanges with ranks at
// increasing distance.
func (r *Rank) barrier() {
	p := r.Size()
	if p == 1 {
		return
	}
	for k := 1; k < p; k <<= 1 {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		r.collSend(dst, tagBarrier, controlSize, "barrier")
		r.collRecv(src, tagBarrier, "barrier")
	}
}

// allreduce combines size bytes across all ranks and leaves the result on
// every rank. Power-of-two communicator sizes use recursive doubling;
// other sizes fall back to Reduce-to-0 followed by Bcast-from-0.
func (r *Rank) allreduce(size int64) {
	p := r.Size()
	if p == 1 {
		return
	}
	if p&(p-1) == 0 {
		for mask := 1; mask < p; mask <<= 1 {
			partner := r.id ^ mask
			r.collSend(partner, tagAllreduce, size, "allreduce")
			r.collRecv(partner, tagAllreduce, "allreduce")
		}
		return
	}
	r.reduceAs(0, size, "allreduce")
	r.bcastAs(0, size, "allreduce")
}

// reduceAs and bcastAs are Reduce/Bcast variants that keep the caller's
// operation name in the trace, so an Allreduce on a non-power-of-two
// communicator is still attributed to "allreduce".
func (r *Rank) reduceAs(root int, size int64, op string) {
	p := r.Size()
	vrank := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask == 0 {
			vsrc := vrank | mask
			if vsrc < p {
				r.collRecv((vsrc+root)%p, tagReduce, op)
			}
		} else {
			vdst := vrank &^ mask
			r.collSend((vdst+root)%p, tagReduce, size, op)
			break
		}
		mask <<= 1
	}
}

func (r *Rank) bcastAs(root int, size int64, op string) {
	p := r.Size()
	vrank := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			r.collRecv(((vrank-mask)+root)%p, tagBcast, op)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < p {
			r.collSend(((vrank+mask)+root)%p, tagBcast, size, op)
		}
		mask >>= 1
	}
}

// gather collects size bytes from every rank onto root (linear algorithm,
// deterministic source order).
func (r *Rank) gather(root int, size int64) {
	p := r.Size()
	if root < 0 || root >= p {
		panic("simmpi: Gather root out of range")
	}
	if r.id == root {
		for src := 0; src < p; src++ {
			if src == root {
				continue
			}
			r.collRecv(src, tagGather, "gather")
		}
		return
	}
	r.collSend(root, tagGather, size, "gather")
}

// scatter distributes size bytes from root to every other rank (linear).
func (r *Rank) scatter(root int, size int64) {
	p := r.Size()
	if root < 0 || root >= p {
		panic("simmpi: Scatter root out of range")
	}
	if r.id == root {
		for dst := 0; dst < p; dst++ {
			if dst == root {
				continue
			}
			r.collSend(dst, tagScatter, size, "scatter")
		}
		return
	}
	r.collRecv(root, tagScatter, "scatter")
}

// allgather shares size bytes per rank with every rank using the ring
// algorithm: p-1 steps, each forwarding one block to the right neighbour.
func (r *Rank) allgather(size int64) {
	p := r.Size()
	if p == 1 {
		return
	}
	right := (r.id + 1) % p
	left := (r.id - 1 + p) % p
	for step := 0; step < p-1; step++ {
		r.collSend(right, tagAllgather, size, "allgather")
		r.collRecv(left, tagAllgather, "allgather")
	}
}

func logOf(p int) int {
	// number of dissemination/binomial rounds
	return bits.Len(uint(p - 1))
}

func TestBarrierMessageCounts(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 16} {
		tr, err := Run(testConfig(p), func(r *Rank) {
			r.barrier()
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for rank := 0; rank < p; rank++ {
			got := len(tr.Filter(rank, trace.Logical))
			want := 0
			if p > 1 {
				want = logOf(p)
			}
			if got != want {
				t.Errorf("p=%d rank %d received %d barrier messages, want %d", p, rank, got, want)
			}
			for _, rec := range tr.Filter(rank, trace.Logical) {
				if rec.Kind != trace.Collective || rec.Op != "barrier" {
					t.Errorf("barrier record mislabelled: %+v", rec)
				}
			}
		}
	}
}

func TestAllreduceCounts(t *testing.T) {
	// Power of two: recursive doubling means every rank receives log2(p)
	// messages. Non power of two: reduce+bcast means p-1 messages twice in
	// total.
	tr, err := Run(testConfig(8), func(r *Rank) { r.allreduce(2048) })
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 8; rank++ {
		if got := len(tr.Filter(rank, trace.Logical)); got != 3 {
			t.Errorf("allreduce on 8 ranks: rank %d received %d messages, want 3", rank, got)
		}
	}
	tr2, err := Run(testConfig(6), func(r *Rank) { r.allreduce(2048) })
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for rank := 0; rank < 6; rank++ {
		recs := tr2.Filter(rank, trace.Logical)
		total += len(recs)
		for _, rec := range recs {
			if rec.Op != "allreduce" {
				t.Errorf("non-power-of-two allreduce should still be labelled allreduce, got %q", rec.Op)
			}
		}
	}
	if total != 2*(6-1) {
		t.Errorf("allreduce on 6 ranks: total messages=%d want %d", total, 2*(6-1))
	}
}

func TestGatherScatterCounts(t *testing.T) {
	p := 5
	tr, err := Run(testConfig(p), func(r *Rank) {
		r.gather(2, 512)
		r.scatter(2, 256)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < p; rank++ {
		recs := tr.Filter(rank, trace.Logical)
		if rank == 2 {
			if len(recs) != p-1 {
				t.Errorf("gather root received %d messages, want %d", len(recs), p-1)
			}
		} else {
			if len(recs) != 1 {
				t.Errorf("non-root rank %d received %d messages, want 1 (from scatter)", rank, len(recs))
			}
			if recs[0].Size != 256 || recs[0].Sender != 2 {
				t.Errorf("scatter message wrong: %+v", recs[0])
			}
		}
	}
}

func TestAllgatherCounts(t *testing.T) {
	p := 6
	tr, err := Run(testConfig(p), func(r *Rank) { r.allgather(128) })
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < p; rank++ {
		recs := tr.Filter(rank, trace.Logical)
		if len(recs) != p-1 {
			t.Errorf("allgather: rank %d received %d messages, want %d", rank, len(recs), p-1)
		}
		left := (rank - 1 + p) % p
		for _, rec := range recs {
			if rec.Sender != left {
				t.Errorf("ring allgather should only receive from the left neighbour %d, got %d", left, rec.Sender)
			}
		}
	}
}
