package core

import "slices"

// ring is a fixed-capacity circular buffer of int64 samples. It backs the
// DPD window: the paper stresses that the detector must be implementable
// with circular lists so that the runtime overhead stays small, so the
// buffer never reallocates after construction and all operations are O(1).
//
// The backing array may hold spare slots beyond the logical capacity. The
// window never grows past Cap(), but the samples it evicts stay readable
// in the spare slots, at logical indices -1 (the latest) down to -Spare(),
// until later pushes overwrite them. The detector replays its lazily
// skipped count updates from them.
type ring struct {
	buf   []int64 // Cap() window slots plus the spare slots
	size  int     // logical capacity
	head  int     // index of the oldest element
	count int
}

// newRing returns an empty ring of the given logical capacity with spare
// extra slots for evicted samples.
func newRing(capacity, spare int) ring {
	if capacity <= 0 {
		capacity = 1
	}
	return ring{buf: make([]int64, capacity+spare), size: capacity}
}

// Spare returns the number of slots beyond Cap(): how many evicted samples
// the ring can keep readable.
func (r *ring) Spare() int { return len(r.buf) - r.size }

// Len returns the number of stored samples.
func (r *ring) Len() int { return r.count }

// Push appends x, evicting the oldest sample when full. It returns the
// evicted sample and whether an eviction happened. The evicted sample
// stays readable at logical index -1 while the ring has spare slots.
func (r *ring) Push(x int64) (evicted int64, wasFull bool) {
	if r.count == r.size {
		evicted = r.buf[r.head]
		r.buf[r.wrap(r.head+r.count)] = x
		r.head = r.wrap(r.head + 1)
		return evicted, true
	}
	r.buf[r.wrap(r.head+r.count)] = x
	r.count++
	return 0, false
}

// wrap maps a physical index in [0, 2*len(buf)) back into the buffer.
// Every caller adds two in-range offsets, so one conditional subtraction
// stands in for a modulo.
func (r *ring) wrap(i int) int {
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// At returns the i-th stored sample, where 0 is the oldest and Len()-1 the
// most recent. It panics on out-of-range access, as a slice would.
func (r *ring) At(i int) int64 {
	if i < 0 || i >= r.count {
		panic("core: ring index out of range")
	}
	return r.buf[r.wrap(r.head+i)]
}

// Segments returns the logical range [i, j) of the stored samples (0 is
// the oldest, -1 the most recently evicted) as at most two contiguous
// sub-slices of the backing array: a holds the samples up to the physical
// end of the buffer and b, empty unless the range wraps, the rest. The
// slices alias the ring and are valid until the next Push. It panics
// unless -Spare() <= i <= j <= Len(); a negative i is only meaningful
// for samples that were evicted and not yet overwritten.
func (r *ring) Segments(i, j int) (a, b []int64) {
	if i < -r.Spare() || i > j || j > r.count {
		panic("core: ring segment out of range")
	}
	start := r.head + i
	if start < 0 {
		start += len(r.buf)
	} else {
		start = r.wrap(start)
	}
	end := start + (j - i)
	if end <= len(r.buf) {
		return r.buf[start:end], nil
	}
	return r.buf[start:], r.buf[:end-len(r.buf)]
}

// Unwrap rotates the backing array in place so that the window is one
// contiguous run, and returns that run. The evicted samples keep their
// logical indices. It costs O(len(buf)) moves when the window wraps and
// nothing otherwise.
func (r *ring) Unwrap() []int64 {
	if r.head+r.count > len(r.buf) {
		slices.Reverse(r.buf[:r.head])
		slices.Reverse(r.buf[r.head:])
		slices.Reverse(r.buf)
		r.head = 0
	}
	return r.buf[r.head : r.head+r.count]
}

// Snapshot copies the window contents, oldest first.
func (r *ring) Snapshot() []int64 {
	return r.AppendTo(make([]int64, 0, r.count))
}

// AppendTo appends the window contents to dst, oldest first, and returns
// it. The two wrapped segments are copied with at most two copy calls.
func (r *ring) AppendTo(dst []int64) []int64 {
	a, b := r.Segments(0, r.count)
	return append(append(dst, a...), b...)
}

// Reset discards all samples but keeps the allocated buffer.
func (r *ring) Reset() {
	r.head = 0
	r.count = 0
}
