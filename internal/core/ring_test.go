package core

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestRingBasics(t *testing.T) {
	r := newRing(3, 0)
	if r.Cap() != 3 || r.Len() != 0 || r.Full() {
		t.Fatalf("fresh ring wrong: cap=%d len=%d full=%v", r.Cap(), r.Len(), r.Full())
	}
	if _, ok := r.Last(); ok {
		t.Fatal("Last on empty ring should not be ok")
	}
	r.Push(1)
	r.Push(2)
	if r.Full() {
		t.Fatal("ring should not be full with 2 of 3 elements")
	}
	r.Push(3)
	if !r.Full() {
		t.Fatal("ring should be full with 3 of 3 elements")
	}
	if got := r.Snapshot(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("snapshot=%v want [1 2 3]", got)
	}
	ev, wasFull := r.Push(4)
	if !wasFull || ev != 1 {
		t.Fatalf("push on full ring: evicted=%d wasFull=%v want 1,true", ev, wasFull)
	}
	if got := r.Snapshot(); got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("snapshot after eviction=%v want [2 3 4]", got)
	}
	last, ok := r.Last()
	if !ok || last != 4 {
		t.Fatalf("last=%d,%v want 4,true", last, ok)
	}
	if r.At(0) != 2 || r.At(2) != 4 {
		t.Fatalf("At order wrong: %d %d", r.At(0), r.At(2))
	}
}

func TestRingReset(t *testing.T) {
	r := newRing(4, 0)
	for i := int64(0); i < 10; i++ {
		r.Push(i)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("len after reset = %d want 0", r.Len())
	}
	r.Push(42)
	if v, _ := r.Last(); v != 42 {
		t.Fatalf("after reset+push last=%d want 42", v)
	}
}

func TestRingZeroCapacityClamped(t *testing.T) {
	r := newRing(0, 0)
	if r.Cap() != 1 {
		t.Fatalf("zero capacity should clamp to 1, got %d", r.Cap())
	}
	r.Push(7)
	ev, wasFull := r.Push(8)
	if !wasFull || ev != 7 {
		t.Fatalf("capacity-1 ring should evict 7, got %d,%v", ev, wasFull)
	}
}

func TestRingAtPanicsOutOfRange(t *testing.T) {
	r := newRing(2, 0)
	r.Push(1)
	for _, idx := range []int{-1, 1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) should panic", idx)
				}
			}()
			r.At(idx)
		}()
	}
}

// Property: a ring of capacity c fed any sequence reports the last
// min(len, c) values of that sequence, in order, whatever its spare slots.
func TestRingMatchesSliceSuffix(t *testing.T) {
	f := func(vals []int64, capRaw uint8) bool {
		c := int(capRaw%16) + 1
		r := newRing(c, int(capRaw/16)%4)
		for _, v := range vals {
			r.Push(v)
		}
		want := vals
		if len(want) > c {
			want = want[len(want)-c:]
		}
		got := r.Snapshot()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Segments(i, j) concatenated is the logical range [i, j) of
// the pushed sequence, for every range and every head position, including
// the evicted samples the spare slots keep (negative i). Unwrap leaves
// every range unchanged.
func TestRingSegmentsMatchSnapshot(t *testing.T) {
	for c := 1; c <= 9; c++ {
		for spare := 0; spare <= 3; spare++ {
			r := newRing(c, spare)
			var pushed []int64
			for step := 0; step < 3*(c+spare)+2; step++ {
				checkRingSegments(t, &r, pushed)
				if step%3 == 2 {
					r.Unwrap()
					checkRingSegments(t, &r, pushed)
				}
				x := int64(100 + step)
				r.Push(x)
				pushed = append(pushed, x)
			}
		}
	}
}

// checkRingSegments compares every readable range of r with the tail of
// the sequence pushed into it.
func checkRingSegments(t *testing.T, r *ring, pushed []int64) {
	t.Helper()
	evicted := len(pushed) - r.Len()
	for i := -min(evicted, r.Spare()); i <= r.Len(); i++ {
		for j := i; j <= r.Len(); j++ {
			a, b := r.Segments(i, j)
			if len(b) > 0 && len(a) == 0 {
				t.Fatalf("cap %d spare %d head %d [%d,%d): empty first segment before a non-empty second", r.Cap(), r.Spare(), r.head, i, j)
			}
			got := append(append([]int64(nil), a...), b...)
			want := pushed[evicted+i : evicted+j]
			if !slices.Equal(got, want) {
				t.Fatalf("cap %d spare %d head %d [%d,%d): got %v want %v", r.Cap(), r.Spare(), r.head, i, j, got, want)
			}
		}
	}
	if got, want := r.Unwrap(), pushed[evicted:]; !slices.Equal(got, want) {
		t.Fatalf("cap %d spare %d: Unwrap() = %v, want %v", r.Cap(), r.Spare(), got, want)
	}
}

func TestRingSegmentsPanicsOutOfRange(t *testing.T) {
	r := newRing(4, 0)
	r.Push(1)
	r.Push(2)
	for _, rg := range [][2]int{{-1, 1}, {1, 0}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Segments(%d, %d) should panic", rg[0], rg[1])
				}
			}()
			r.Segments(rg[0], rg[1])
		}()
	}
}
