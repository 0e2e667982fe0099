package machine

// Word-packed ready sets. The scheduler's per-cycle sets — dirty
// cells, armed pools, the transport/writer/moved/reqCheck message
// sets — used to be (index slice, bool slice) pairs: the slice gave
// iteration order (sorted at use), the flags gave O(1) membership.
// A bitset gives both at once: membership is one bit, and iterating
// set bits with TrailingZeros64 visits entries in ascending id order
// by construction, so the per-cycle slices.Sort calls and the O(n)
// sorted insertions disappear entirely. At 32×32-mesh scale a set
// over every message is 1–2 cache lines instead of a pointer-chased
// pair of slices.

import "math/bits"

// bitset is a set of small non-negative integers with a cached
// cardinality. The zero value is an empty set of capacity 0; sizeTo
// prepares it for a run.
type bitset struct {
	words []uint64
	count int
}

// sizeTo empties the set and sizes it for members in [0, n).
func (b *bitset) sizeTo(n int) {
	w := (n + 63) >> 6
	b.words = grow(b.words, w)
	clear(b.words)
	b.count = 0
}

// add inserts i.
//
//sysvet:hotpath
func (b *bitset) add(i int) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.count++
	}
}

// drop removes i.
//
//sysvet:hotpath
func (b *bitset) drop(i int) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if b.words[w]&bit != 0 {
		b.words[w] &^= bit
		b.count--
	}
}

// clearAll empties the set, keeping its capacity.
//
//sysvet:hotpath
func (b *bitset) clearAll() {
	if b.count == 0 {
		return
	}
	clear(b.words)
	b.count = 0
}

// fill makes the set exactly [0, n). The set must be sized for n.
func (b *bitset) fill(n int) {
	clear(b.words)
	for i := 0; i < n>>6; i++ {
		b.words[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		b.words[n>>6] = (uint64(1) << r) - 1
	}
	b.count = n
}

// copyFrom makes b an exact copy of src, reusing b's backing array.
//
//sysvet:hotpath
func (b *bitset) copyFrom(src *bitset) {
	b.words = grow(b.words, len(src.words))
	copy(b.words, src.words)
	b.count = src.count
}

// next returns the smallest member ≥ i, or -1. The canonical
// ascending iteration — the order every ready-set phase must visit
// entries in — is
//
//	for i := s.next(0); i >= 0; i = s.next(i + 1) { ... }
//
// Dropping already-visited members (or the current one) mid-loop is
// safe; adding members behind the cursor is not observed.
//
//sysvet:hotpath
func (b *bitset) next(i int) int {
	if b.count == 0 {
		// Most phases of an idle cycle find their set empty; skip the
		// word scan.
		return -1
	}
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(b.words) {
		return -1
	}
	word := b.words[w] &^ ((uint64(1) << (i & 63)) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(b.words) {
			return -1
		}
		word = b.words[w]
	}
}
