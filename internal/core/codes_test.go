package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// checkCodes verifies a caught-up detector's code ring against its
// window ring: every live slot holds the code the dictionary gives its
// value, or escapeCode when the value has none, so all live samples of
// one value share one code; every code's reference count and the escape
// count match the live slots; the dictionary holds at most 255 codes;
// and the mirrored tail repeats the ring.
func checkCodes(d *Detector) error {
	c := &d.codes
	n := d.win.Len()
	a, b := d.win.Segments(n-c.live, n)
	var refs [256]int
	for i, x := range append(append([]int64(nil), a...), b...) {
		code := c.buf[c.slot(c.live-i)]
		refs[code]++
		slot, found := c.find(x)
		switch {
		case found && c.table[slot]-1 != code:
			return fmt.Errorf("window[%d] = %d has code %d, its value's code is %d", n-c.live+i, x, code, c.table[slot]-1)
		case !found && code != escapeCode:
			return fmt.Errorf("window[%d] = %d has code %d, its value has none", n-c.live+i, x, code)
		}
	}
	if refs[escapeCode] != c.escapes {
		return fmt.Errorf("%d live escape-coded samples, counted %d", refs[escapeCode], c.escapes)
	}
	if len(c.value) > escapeCode {
		return fmt.Errorf("dictionary holds %d codes", len(c.value))
	}
	for code, r := range c.refs {
		if int(r) != refs[code] {
			return fmt.Errorf("code %d has %d live samples, counted %d", code, refs[code], r)
		}
	}
	for i := c.size; i < len(c.buf); i++ {
		if c.buf[i] != c.buf[i%c.size] {
			return fmt.Errorf("tail slot %d = %d, ring slot %d = %d", i, c.buf[i], i%c.size, c.buf[i%c.size])
		}
	}
	return nil
}

// cycleThenPeriodic returns n distinct values in a cycle of length
// cycle, repeated reps times, then tail samples of a period-7 stream
// whose values the cycle never takes.
func cycleThenPeriodic(cycle, reps, tail int) []int64 {
	var out []int64
	for i := range cycle * reps {
		out = append(out, 1000+int64(i%cycle))
	}
	for i := range tail {
		out = append(out, int64(i%7))
	}
	return out
}

// TestCodeDictionaryBoundedAndRecovers feeds a 300-value cycle, which
// needs more codes than the dictionary has, then a period-7 stream. The
// dictionary never holds more than 255 codes; the escape code is in use
// once it is full; the period-7 values are escape-coded while any
// escaped sample is in the ring and get real codes again once every one
// has left it.
func TestCodeDictionaryBoundedAndRecovers(t *testing.T) {
	d := NewDetector(DefaultConfig())
	size := d.codes.size
	stream := cycleThenPeriodic(300, 3, 3*size)
	lastEscape, full := -1, false
	for step, x := range stream {
		d.Observe(x)
		if err := checkCodes(d); err != nil {
			t.Fatalf("sample %d: %v", step, err)
		}
		newest := d.codes.buf[d.codes.slot(1)]
		if newest == escapeCode {
			lastEscape = step
		}
		if len(d.codes.value)-len(d.codes.free) == escapeCode {
			full = true
		}
		if step > lastEscape+size && d.codes.escapes != 0 {
			t.Fatalf("sample %d: %d escaped samples live, the last was coded at sample %d", step, d.codes.escapes, lastEscape)
		}
	}
	if !full {
		t.Fatal("the dictionary never filled")
	}
	if tailStart := 900; lastEscape < tailStart {
		t.Fatalf("no period-7 sample was escape-coded (last escape at %d)", lastEscape)
	}
	if lastEscape+size >= len(stream) {
		t.Fatalf("stream ends before the escaped samples leave the ring (last at %d, ring %d)", lastEscape, size)
	}
	for v := range int64(7) {
		if _, found := d.codes.find(v); !found {
			t.Errorf("value %d has no code after the escaped samples left the ring", v)
		}
	}
}

// TestCodeRingReusesFreedCodes streams values that drift — a few live
// at a time, hundreds over the run — so codes are freed and handed out
// again, and the dictionary stays as small as the live alphabet.
func TestCodeRingReusesFreedCodes(t *testing.T) {
	d := NewDetector(Config{WindowSize: 64, MaxLag: 16})
	r := rand.New(rand.NewSource(3))
	for step := range 5000 {
		d.Observe(int64(step/50*3 + r.Intn(4)))
		if err := checkCodes(d); err != nil {
			t.Fatalf("sample %d: %v", step, err)
		}
	}
	if n := len(d.codes.value); n > 16 {
		t.Errorf("dictionary grew to %d codes for at most 8 live values", n)
	}
	if d.codes.escapes != 0 {
		t.Errorf("%d escaped samples with a small live alphabet", d.codes.escapes)
	}
}

// TestMaskLayout pins the bit layout the masks and planes share: lag
// 64w+8g+j+1 at bit 8j+g of word w, which transpose8 maps to and from
// lag order and bits.Reverse64 maps to the reversed lag order of the
// insertion pass.
func TestMaskLayout(t *testing.T) {
	for m := 1; m <= 192; m++ {
		w, bit := lagBit(m)
		l := m - 1 - 64*w
		if got := transpose8(1 << bit); got != 1<<l {
			t.Fatalf("lag %d: transpose8 of its bit %d = %#x, want bit %d", m, bit, got, l)
		}
		_, rev := lagBit(64*w + 64 - l)
		if got := bits.Reverse64(1 << bit); got != 1<<rev {
			t.Fatalf("lag %d: Reverse64 of its bit = %#x, want bit %d", m, got, rev)
		}
	}
	r := rand.New(rand.NewSource(1))
	codes := make([]byte, 64)
	values := make([]int64, 64)
	for range 200 {
		x := byte(r.Intn(4))
		for i := range codes {
			codes[i] = byte(r.Intn(4))
			values[i] = int64(codes[i])
		}
		var want uint64
		for k := range codes {
			if codes[k] != x {
				_, bit := lagBit(k + 1)
				want |= 1 << bit
			}
		}
		if got := codeMask(codes, broadcast(x)); got != want {
			t.Fatalf("codeMask(%v, %d) = %#x, want %#x", codes, x, got, want)
		}
		if got := valueMask(values, int64(x)); got != want {
			t.Fatalf("valueMask(%v, %d) = %#x, want %#x", values, x, got, want)
		}
	}
}
