package core

import "math/bits"

// escapeCode is the code of a sample whose value has no code of its own:
// the dictionary is full, or other escape-coded samples are still in the
// code ring. Escape-coded samples are compared by value.
const escapeCode = 0xff

// codeRing holds a one-byte code for each of the last size samples the
// detector coded, so the count updates can compare eight samples per
// 64-bit word instead of one int64 at a time. Codes are assigned by a
// per-detector dictionary, and the coding keeps one invariant: all
// samples of one value that are in the ring share one code. Equal codes
// other than escapeCode therefore mean equal values, and a sample with a
// code other than escapeCode can be compared with any other by code.
//
// The ring's slots follow the order of coding, independently of the
// window ring's layout, which lock rotates in place. Slot i is mirrored
// at i+size, i+2·size, ... up to len(buf), so a forward read of up to
// len(buf)-size bytes from any slot is contiguous.
type codeRing struct {
	buf  []byte
	size int // slots: the window plus the replay slots
	next int // slot the next code goes to
	live int // slots holding a sample coded since the last reset

	// table finds the code of a value: an open-addressing hash table
	// probed linearly, each entry code+1 or 0 when empty, at most half
	// full. value, refs and free are indexed by code.
	table   []uint8
	shift   uint // 64 - log2(len(table))
	value   []int64
	refs    []uint16 // live samples per code; size < 1<<16
	free    []uint8  // codes whose last sample left the ring
	escapes int      // live escape-coded samples
}

// minCodeTable is the initial number of hash table entries.
const minCodeTable = 16

// newCodeRing returns an empty ring of size slots whose forward reads
// span up to span bytes.
func newCodeRing(size, span int) codeRing {
	return codeRing{
		buf:   make([]byte, size+span),
		size:  size,
		table: make([]uint8, minCodeTable),
		shift: uint(64 - bits.TrailingZeros(minCodeTable)),
	}
}

// reset empties the ring and the dictionary, keeping their memory.
func (c *codeRing) reset() {
	c.next, c.live = 0, 0
	c.clearCodes()
}

// clearCodes empties the dictionary, keeping its memory.
func (c *codeRing) clearCodes() {
	c.escapes = 0
	clear(c.table)
	c.value, c.refs, c.free = c.value[:0], c.refs[:0], c.free[:0]
}

// add codes x into the next slot. The sample the slot held leaves the
// ring, and its code is freed if it was the last sample holding it.
func (c *codeRing) add(x int64) {
	if c.live == c.size {
		c.release(c.buf[c.next])
	} else {
		c.live++
	}
	c.put(c.next, c.code(x))
	if c.next++; c.next == c.size {
		c.next = 0
	}
}

// put writes code into slot i and its mirrors.
func (c *codeRing) put(i int, code uint8) {
	for ; i < len(c.buf); i += c.size {
		c.buf[i] = code
	}
}

// stuck reports whether the ring holds escape-coded samples although the
// dictionary holds at most a quarter of its codes. A value first seen
// while escapes are live is escape-coded, and its own samples then keep
// escapes live, so a value that recurs would stay escape-coded for good.
func (c *codeRing) stuck() bool {
	return c.escapes > 0 && 4*(len(c.value)-len(c.free)) <= escapeCode
}

// recode codes the live samples afresh from an empty dictionary, newest
// first, so that the most recent values get codes before the dictionary
// fills. a and b hold the live samples, oldest first. Recoding changes
// no comparison: it only restores the invariant from scratch.
func (c *codeRing) recode(a, b []int64) {
	c.clearCodes()
	back := 1
	for i := len(b) - 1; i >= 0; i-- {
		c.put(c.slot(back), c.code(b[i]))
		back++
	}
	for i := len(a) - 1; i >= 0; i-- {
		c.put(c.slot(back), c.code(a[i]))
		back++
	}
}

// code returns the code of one more live sample of value x. A value
// without a code gets a fresh one only while no escape-coded sample is
// live: one of those may hold the same value, which must not be split
// between two codes.
func (c *codeRing) code(x int64) uint8 {
	i, found := c.find(x)
	if found {
		code := c.table[i] - 1
		c.refs[code]++
		return code
	}
	var code uint8
	switch {
	case c.escapes > 0:
		c.escapes++
		return escapeCode
	case len(c.free) > 0:
		code = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	case len(c.value) < escapeCode:
		code = uint8(len(c.value))
		c.value = append(c.value, 0)
		c.refs = append(c.refs, 0)
	default:
		c.escapes++
		return escapeCode
	}
	c.value[code] = x
	c.refs[code] = 1
	if coded := len(c.value) - len(c.free); 2*coded > len(c.table) {
		c.grow()
		i, _ = c.find(x)
	}
	c.table[i] = code + 1
	return code
}

// release drops one live sample of the given code.
func (c *codeRing) release(code uint8) {
	if code == escapeCode {
		c.escapes--
		return
	}
	if c.refs[code]--; c.refs[code] == 0 {
		c.forget(code)
		c.free = append(c.free, code)
	}
}

// home returns the table entry a probe for x starts at.
func (c *codeRing) home(x int64) int {
	return int(uint64(x) * 0x9e3779b97f4a7c15 >> c.shift)
}

// find returns the table entry holding x's code, or the empty entry
// where it would go.
func (c *codeRing) find(x int64) (int, bool) {
	mask := len(c.table) - 1
	for i := c.home(x); ; i = (i + 1) & mask {
		e := c.table[i]
		if e == 0 {
			return i, false
		}
		if c.value[e-1] == x {
			return i, true
		}
	}
}

// forget removes code from the table, moving back any later entry of
// its probe run that could no longer be found past the hole.
func (c *codeRing) forget(code uint8) {
	hole, _ := c.find(c.value[code])
	mask := len(c.table) - 1
	for j := (hole + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		// The entry at j stays when its home lies cyclically in (hole, j].
		k := c.home(c.value[c.table[j]-1])
		if hole <= j && hole < k && k <= j || hole > j && (hole < k || k <= j) {
			continue
		}
		c.table[hole] = c.table[j]
		hole = j
	}
	c.table[hole] = 0
}

// grow doubles the table and reinserts every value with a code.
func (c *codeRing) grow() {
	c.table = make([]uint8, 2*len(c.table))
	c.shift--
	for code, x := range c.value {
		if c.refs[code] > 0 {
			i, _ := c.find(x)
			c.table[i] = uint8(code) + 1
		}
	}
}

// slot returns the slot of the sample coded back samples before the
// next one (back >= 1 is the newest); any back maps into [0, size).
func (c *codeRing) slot(back int) int {
	s := c.next - back
	for s < 0 {
		s += c.size
	}
	return s
}
