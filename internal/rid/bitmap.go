package rid

import (
	"math/bits"
	"slices"

	"rdbdyn/internal/storage"
)

// CompressedBitmap is an exact, compressed RID set: a roaring-style
// bitmap over the 64-bit RID key space (see storage.RID.Key). Keys are
// chunked by their high 48 bits — one chunk per (file, page) — and each
// chunk stores its 16-bit slot values either as a sorted array (sparse
// chunks) or a packed 8 KiB bitset (dense chunks). Unlike the hashed
// bitmap it replaces, membership answers are exact, so downstream
// consumers (loser refilter, borrow stream, final stage) never fetch a
// record that cannot match.
//
// The zero value is an empty set. Methods are not safe for concurrent
// mutation; concurrent MayContain/FilterBatch probes are safe once
// mutation has stopped.
type CompressedBitmap struct {
	keys   []uint64 // sorted chunk keys (RID.Key() >> 16)
	chunks []chunk  // parallel to keys
	n      int      // total distinct RIDs
}

const (
	// chunkSlots is the slot space of one chunk (the low 16 bits of a
	// RID key).
	chunkSlots = 1 << 16
	// bitsetWords is the length of a dense chunk's word array.
	bitsetWords = chunkSlots / 64
	// arrayMax is the array→bitset conversion threshold: past this many
	// slots the sorted array (2 bytes/slot) would outgrow a quarter of
	// the fixed 8 KiB bitset, and binary-search probes lose to O(1) bit
	// tests anyway.
	arrayMax = 4096
)

// chunk holds the slots of one (file, page). Exactly one of arr/bits is
// in use: arr while sparse, bits once the chunk holds > arrayMax slots.
type chunk struct {
	arr  []uint16 // sorted, distinct; nil when dense
	bits []uint64 // bitsetWords words; nil while sparse
	card int      // set bits when dense (arr carries its own length)
}

// NewCompressedBitmap returns an empty set.
func NewCompressedBitmap() *CompressedBitmap { return &CompressedBitmap{} }

// FromRIDs builds a compressed bitmap over rids, in any order
// (duplicates collapse). The keys are sorted once; each page's run of
// slots then becomes one chunk whose array is cut from a single slab and
// capped at its length, so a later Add to one chunk reallocates that
// chunk's array instead of writing into its neighbour's. The build makes
// the same few allocations whatever the input order.
func FromRIDs(rids []storage.RID) *CompressedBitmap {
	keys := keysOf(rids)
	nc := 0
	for i, k := range keys {
		if i == 0 || k>>16 != keys[i-1]>>16 {
			nc++
		}
	}
	b := &CompressedBitmap{keys: make([]uint64, 0, nc), chunks: make([]chunk, 0, nc), n: len(keys)}
	slab := make([]uint16, len(keys))
	for i := 0; i < len(keys); {
		key := keys[i] >> 16
		j := i + 1
		for j < len(keys) && keys[j]>>16 == key {
			j++
		}
		var c chunk
		if j-i > arrayMax {
			c = chunk{bits: make([]uint64, bitsetWords), card: j - i}
			for _, k := range keys[i:j] {
				c.bits[uint16(k)>>6] |= 1 << (k & 63)
			}
		} else {
			c.arr = slab[i:j:j]
			for x, k := range keys[i:j] {
				c.arr[x] = uint16(k)
			}
		}
		b.keys = append(b.keys, key)
		b.chunks = append(b.chunks, c)
		i = j
	}
	return b
}

// search finds the chunk index for key. ok is false when absent, in
// which case the index is the insertion point.
func (b *CompressedBitmap) search(key uint64) (int, bool) {
	// Fast path: ascending Adds (a spilled list's appends in page order)
	// hit the last chunk repeatedly.
	if n := len(b.keys); n > 0 && b.keys[n-1] == key {
		return n - 1, true
	}
	return slices.BinarySearch(b.keys, key)
}

// Add inserts r; duplicates are no-ops.
func (b *CompressedBitmap) Add(r storage.RID) {
	k := r.Key()
	key, slot := k>>16, uint16(k)
	i, ok := b.search(key)
	if !ok {
		b.keys = append(b.keys, 0)
		copy(b.keys[i+1:], b.keys[i:])
		b.keys[i] = key
		b.chunks = append(b.chunks, chunk{})
		copy(b.chunks[i+1:], b.chunks[i:])
		b.chunks[i] = chunk{}
	}
	if b.chunks[i].add(slot) {
		b.n++
	}
}

// MayContain implements Filter. It is exact: no false positives.
func (b *CompressedBitmap) MayContain(r storage.RID) bool {
	k := r.Key()
	i, ok := b.search(k >> 16)
	return ok && b.chunks[i].contains(uint16(k))
}

// Exact implements Filter.
func (b *CompressedBitmap) Exact() bool { return true }

// FilterBatch implements BatchFilter: keep[i] reports membership of
// rids[i]. Consecutive probes of the same (file, page) — the common case
// for index-scan batches and sorted final-stage lists — resolve the
// chunk once, and ascending slot probes within a sparse chunk advance a
// merge position by galloping instead of binary-searching from scratch,
// making a full sorted sweep O(card + probes) per chunk.
func (b *CompressedBitmap) FilterBatch(rids []storage.RID, keep []bool) {
	j := -1 // chunk index of the previous probe's page, -1 = unknown/absent
	var jkey uint64
	pos := 0 // merge position within the current sparse chunk
	var lastSlot uint16
	for i, r := range rids {
		k := r.Key()
		key, slot := k>>16, uint16(k)
		if j < 0 || jkey != key {
			jkey = key
			pos = 0
			lastSlot = 0
			if idx, ok := b.search(key); ok {
				j = idx
			} else {
				j = -1
			}
		}
		if j < 0 {
			keep[i] = false
			continue
		}
		c := &b.chunks[j]
		if c.bits != nil {
			keep[i] = c.bits[slot>>6]&(1<<(slot&63)) != 0
			continue
		}
		if slot < lastSlot {
			pos = 0 // probes went backwards: restart the merge
		}
		pos = searchFrom(c.arr, slot, pos)
		keep[i] = pos < len(c.arr) && c.arr[pos] == slot
		lastSlot = slot
	}
}

// Len returns the number of distinct RIDs in the set.
func (b *CompressedBitmap) Len() int { return b.n }

// SizeBytes returns the approximate memory footprint of the payload.
func (b *CompressedBitmap) SizeBytes() int {
	sz := len(b.keys) * 8
	for i := range b.chunks {
		c := &b.chunks[i]
		if c.bits != nil {
			sz += bitsetWords * 8
		} else {
			sz += len(c.arr) * 2
		}
	}
	return sz
}

// And returns the intersection of b and o as a new set.
func (b *CompressedBitmap) And(o *CompressedBitmap) *CompressedBitmap {
	out := NewCompressedBitmap()
	i, j := 0, 0
	for i < len(b.keys) && j < len(o.keys) {
		switch {
		case b.keys[i] < o.keys[j]:
			i++
		case b.keys[i] > o.keys[j]:
			j++
		default:
			out.push(b.keys[i], chunkAnd(&b.chunks[i], &o.chunks[j]))
			i++
			j++
		}
	}
	return out
}

// Or returns the union of b and o as a new set.
func (b *CompressedBitmap) Or(o *CompressedBitmap) *CompressedBitmap {
	out := NewCompressedBitmap()
	i, j := 0, 0
	for i < len(b.keys) || j < len(o.keys) {
		switch {
		case j >= len(o.keys) || (i < len(b.keys) && b.keys[i] < o.keys[j]):
			out.push(b.keys[i], b.chunks[i].clone())
			i++
		case i >= len(b.keys) || o.keys[j] < b.keys[i]:
			out.push(o.keys[j], o.chunks[j].clone())
			j++
		default:
			out.push(b.keys[i], chunkOr(&b.chunks[i], &o.chunks[j]))
			i++
			j++
		}
	}
	return out
}

// AndNot returns the difference b minus o as a new set.
func (b *CompressedBitmap) AndNot(o *CompressedBitmap) *CompressedBitmap {
	out := NewCompressedBitmap()
	j := 0
	for i := range b.keys {
		for j < len(o.keys) && o.keys[j] < b.keys[i] {
			j++
		}
		if j < len(o.keys) && o.keys[j] == b.keys[i] {
			out.push(b.keys[i], chunkAndNot(&b.chunks[i], &o.chunks[j]))
		} else {
			out.push(b.keys[i], b.chunks[i].clone())
		}
	}
	return out
}

// push appends a chunk produced in key order, dropping empty results.
func (b *CompressedBitmap) push(key uint64, c chunk) {
	n := c.len()
	if n == 0 {
		return
	}
	b.keys = append(b.keys, key)
	b.chunks = append(b.chunks, c)
	b.n += n
}

// chunk operations

func (c *chunk) len() int {
	if c.bits != nil {
		return c.card
	}
	return len(c.arr)
}

// add inserts slot, reporting whether it was new.
func (c *chunk) add(s uint16) bool {
	if c.bits != nil {
		w, m := int(s>>6), uint64(1)<<(s&63)
		if c.bits[w]&m != 0 {
			return false
		}
		c.bits[w] |= m
		c.card++
		return true
	}
	// Append fast path: ascending builds (cursor-order scans, sorted
	// spills) grow the tail without a search or a shift.
	if n := len(c.arr); n == 0 || c.arr[n-1] < s {
		if n >= arrayMax {
			c.toBits()
			return c.add(s)
		}
		if c.arr == nil {
			c.arr = make([]uint16, 0, 16)
		}
		c.arr = append(c.arr, s)
		return true
	}
	i, found := slices.BinarySearch(c.arr, s)
	if found {
		return false
	}
	if len(c.arr) >= arrayMax {
		c.toBits()
		return c.add(s)
	}
	c.arr = append(c.arr, 0)
	copy(c.arr[i+1:], c.arr[i:])
	c.arr[i] = s
	return true
}

func (c *chunk) contains(s uint16) bool {
	if c.bits != nil {
		return c.bits[s>>6]&(1<<(s&63)) != 0
	}
	_, found := slices.BinarySearch(c.arr, s)
	return found
}

// toBits converts a sparse chunk to the dense form.
func (c *chunk) toBits() {
	w := make([]uint64, bitsetWords)
	for _, s := range c.arr {
		w[s>>6] |= 1 << (s & 63)
	}
	c.bits, c.card, c.arr = w, len(c.arr), nil
}

// toArr converts a dense chunk back to the sparse form. Caller
// guarantees card <= arrayMax.
func (c *chunk) toArr() {
	arr := make([]uint16, 0, c.card)
	for w, word := range c.bits {
		for word != 0 {
			arr = append(arr, uint16(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	c.arr, c.bits, c.card = arr, nil, 0
}

// clone deep-copies the chunk so set-operation results never alias
// their operands.
func (c *chunk) clone() chunk {
	out := chunk{card: c.card}
	if c.bits != nil {
		out.bits = append([]uint64(nil), c.bits...)
	} else {
		out.arr = append([]uint16(nil), c.arr...)
	}
	return out
}

// normalize converts a dense result back to sparse when it shrank below
// the threshold, keeping probe cost and footprint proportional to
// cardinality.
func (c *chunk) normalize() chunk {
	if c.bits != nil && c.card <= arrayMax {
		c.toArr()
	}
	return *c
}

func chunkAnd(a, b *chunk) chunk {
	switch {
	case a.bits != nil && b.bits != nil:
		out := chunk{bits: make([]uint64, bitsetWords)}
		for i := range out.bits {
			w := a.bits[i] & b.bits[i]
			out.bits[i] = w
			out.card += bits.OnesCount64(w)
		}
		return out.normalize()
	case a.bits != nil: // b sparse
		return chunkAnd(b, a)
	case b.bits != nil: // a sparse, b dense: keep a's slots present in b
		out := chunk{arr: make([]uint16, 0, len(a.arr))}
		for _, s := range a.arr {
			if b.contains(s) {
				out.arr = append(out.arr, s)
			}
		}
		return out
	default: // both sparse: merge-intersect
		out := chunk{}
		i, j := 0, 0
		for i < len(a.arr) && j < len(b.arr) {
			switch {
			case a.arr[i] < b.arr[j]:
				i++
			case a.arr[i] > b.arr[j]:
				j++
			default:
				out.arr = append(out.arr, a.arr[i])
				i++
				j++
			}
		}
		return out
	}
}

func chunkOr(a, b *chunk) chunk {
	switch {
	case a.bits != nil && b.bits != nil:
		out := chunk{bits: make([]uint64, bitsetWords)}
		for i := range out.bits {
			w := a.bits[i] | b.bits[i]
			out.bits[i] = w
			out.card += bits.OnesCount64(w)
		}
		return out
	case a.bits == nil && b.bits != nil:
		return chunkOr(b, a)
	case a.bits != nil: // a dense, b sparse: copy a, set b's slots
		out := a.clone()
		for _, s := range b.arr {
			w, m := int(s>>6), uint64(1)<<(s&63)
			if out.bits[w]&m == 0 {
				out.bits[w] |= m
				out.card++
			}
		}
		return out
	default: // both sparse: merge-union
		out := chunk{arr: make([]uint16, 0, len(a.arr)+len(b.arr))}
		i, j := 0, 0
		for i < len(a.arr) || j < len(b.arr) {
			switch {
			case j >= len(b.arr) || (i < len(a.arr) && a.arr[i] < b.arr[j]):
				out.arr = append(out.arr, a.arr[i])
				i++
			case i >= len(a.arr) || b.arr[j] < a.arr[i]:
				out.arr = append(out.arr, b.arr[j])
				j++
			default:
				out.arr = append(out.arr, a.arr[i])
				i++
				j++
			}
		}
		if len(out.arr) > arrayMax {
			out.toBits()
		}
		return out
	}
}

func chunkAndNot(a, b *chunk) chunk {
	switch {
	case a.bits == nil: // sparse minus anything: filter
		out := chunk{arr: make([]uint16, 0, len(a.arr))}
		for _, s := range a.arr {
			if !b.contains(s) {
				out.arr = append(out.arr, s)
			}
		}
		return out
	case b.bits != nil: // dense minus dense
		out := chunk{bits: make([]uint64, bitsetWords)}
		for i := range out.bits {
			w := a.bits[i] &^ b.bits[i]
			out.bits[i] = w
			out.card += bits.OnesCount64(w)
		}
		return out.normalize()
	default: // dense minus sparse: copy a, clear b's slots
		out := a.clone()
		for _, s := range b.arr {
			w, m := int(s>>6), uint64(1)<<(s&63)
			if out.bits[w]&m != 0 {
				out.bits[w] &^= m
				out.card--
			}
		}
		return out.normalize()
	}
}

// searchFrom returns the first index i >= from with arr[i] >= s,
// galloping forward so an ascending probe sequence pays amortized O(1)
// per probe while an isolated far probe stays O(log n).
func searchFrom[T uint16 | uint64](arr []T, s T, from int) int {
	if from >= len(arr) || arr[from] >= s {
		return from
	}
	return Gallop(from+1, len(arr), func(i int) bool { return arr[i] < s })
}

// Gallop returns the first i in [from, n) for which below(i) is false,
// or n, where below is true on a prefix of [from, n) and false after
// it. Its probes stride ahead — from, from+2, from+6, from+14, ... —
// until below fails, then halve the bracket that leaves, so the end of
// a prefix of length d costs O(log d) probes. That is what makes a merge of two
// sorted sequences adaptive: a long skip through either costs its
// logarithm. Gallop inlines, and below with it.
func Gallop(from, n int, below func(int) bool) int {
	lo, hi, step := from, n, 1
	for lo < hi {
		mid := min(lo+step-1, int(uint(lo+hi)>>1))
		if below(mid) {
			lo, step = mid+1, 2*step
		} else {
			hi = mid
		}
	}
	return lo
}
