package rid

import (
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
// record that cannot match. It answers membership only: it is built
// (FromRIDs, Add) and probed (MayContain, FilterBatch), never combined
// with another set.
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

// FilterBatch implements Filter: keep[i] reports membership of
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

// chunk operations

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
