package simmpi

import "mpipredict/internal/trace"

// Tags used internally by the collective algorithms. They live far above
// the tag space applications normally use so that collective traffic never
// matches application point-to-point receives.
// The blank slots are left to collectives no workload calls (the tests
// build barrier, allreduce, gather, scatter and allgather on them).
const (
	_ = 1<<20 + iota
	tagBcast
	tagReduce
	_
	_
	_
	_
	tagAlltoall
	tagAlltoallv
)

// collSend and collRecv are the point-to-point primitives used inside
// collective algorithms; they record messages with Kind Collective and the
// name of the collective operation, which is how Table 1 separates
// point-to-point from collective message counts.
func (r *Rank) collSend(dst, tag int, size int64, op string) {
	r.send(dst, tag, size, trace.Collective, op)
}

func (r *Rank) collRecv(src, tag int, op string) Message {
	return r.recv(src, tag, op)
}

// Bcast broadcasts size bytes from root to every rank using a binomial
// tree, like the classic MPICH implementation.
func (r *Rank) Bcast(root int, size int64) {
	p := r.Size()
	if p == 1 {
		return
	}
	if root < 0 || root >= p {
		panic("simmpi: Bcast root out of range")
	}
	vrank := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			vsrc := vrank - mask
			src := (vsrc + root) % p
			r.collRecv(src, tagBcast, "bcast")
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < p {
			vdst := vrank + mask
			dst := (vdst + root) % p
			r.collSend(dst, tagBcast, size, "bcast")
		}
		mask >>= 1
	}
}

// Reduce combines size bytes from every rank onto root using a binomial
// tree (commutative reduction).
func (r *Rank) Reduce(root int, size int64) {
	p := r.Size()
	if p == 1 {
		return
	}
	if root < 0 || root >= p {
		panic("simmpi: Reduce root out of range")
	}
	vrank := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask == 0 {
			vsrc := vrank | mask
			if vsrc < p {
				src := (vsrc + root) % p
				r.collRecv(src, tagReduce, "reduce")
			}
		} else {
			vdst := vrank &^ mask
			dst := (vdst + root) % p
			r.collSend(dst, tagReduce, size, "reduce")
			break
		}
		mask <<= 1
	}
}

// Alltoall exchanges size bytes between every pair of ranks. Like the
// MPICH non-blocking algorithm, every rank first posts all of its sends
// (staggered by rank so the pattern is not a synchronized burst) and then
// completes the receives in ascending source order. The logical receive
// order is therefore deterministic while the physical arrival order is
// exposed to network jitter across all in-flight messages — the effect
// that makes IS the least predictable benchmark at the physical level.
func (r *Rank) Alltoall(size int64) {
	p := r.Size()
	for i := 1; i < p; i++ {
		dst := (r.id + i) % p
		r.collSend(dst, tagAlltoall, size, "alltoall")
	}
	for src := 0; src < p; src++ {
		if src == r.id {
			continue
		}
		r.collRecv(src, tagAlltoall, "alltoall")
	}
}

// Alltoallv is Alltoall with per-destination sizes. sizes must have one
// entry per rank; the entry for the caller's own rank is ignored.
func (r *Rank) Alltoallv(sizes []int64) {
	p := r.Size()
	if len(sizes) != p {
		panic("simmpi: Alltoallv needs one size per rank")
	}
	for i := 1; i < p; i++ {
		dst := (r.id + i) % p
		r.collSend(dst, tagAlltoallv, sizes[dst], "alltoallv")
	}
	for src := 0; src < p; src++ {
		if src == r.id {
			continue
		}
		r.collRecv(src, tagAlltoallv, "alltoallv")
	}
}
