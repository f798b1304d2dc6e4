package rid

import (
	"math/bits"
	"slices"

	"rdbdyn/internal/storage"
)

// sortedKeys is an in-memory RID list in filter form: the Keys of its
// RIDs, ascending and distinct — Section 6's sorted buffer, probed in
// place. Container.Filter returns it for a list that stayed within its
// memory budget. Membership is exact.
type sortedKeys struct {
	keys []uint64
}

// keysOf copies the Keys of rids once, sorted and deduplicated: one
// allocation, whatever the input order. A list that is neither short
// nor already in key order is first distributed by the high bits of its
// key range; one insertion pass then finishes each bucket in place.
func keysOf(rids []storage.RID) []uint64 {
	keys := make([]uint64, len(rids))
	lo, hi, sorted := ^uint64(0), uint64(0), true
	for i, r := range rids {
		k := r.Key()
		sorted = sorted && (i == 0 || k >= hi)
		lo, hi = min(lo, k), max(hi, k)
	}
	if sorted || len(rids) <= shortList {
		for i, r := range rids {
			keys[i] = r.Key()
		}
	} else {
		distribute(keys, rids, lo, hi)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return slices.Compact(keys)
}

const (
	// shortList is the longest list keysOf sorts by insertion alone.
	shortList = 64
	// distBits caps distribute at 1 << distBits buckets, a 4 KiB count
	// table on the stack: about one bucket per key of a Jscan's typical
	// first list.
	distBits = 10
	// longBucket is the most keys distribute leaves to the insertion
	// pass in one bucket; it sorts a longer bucket itself.
	longBucket = 16
)

// distribute writes the Keys of rids, which lie in [lo, hi], to keys
// grouped by bucket — their offset from lo shifted to at most about
// len(rids) buckets — each key straight from its RID to its bucket's
// place. A list spread over its key range leaves a few keys per
// bucket; a bucket that drew more than longBucket (a list bunched
// within its range) is sorted outright.
func distribute(keys []uint64, rids []storage.RID, lo, hi uint64) {
	nb := min(bits.Len(uint(len(rids))), distBits)
	shift := max(bits.Len64(hi-lo)-nb, 0)
	var at [1 << distBits]int32
	for _, r := range rids {
		at[(r.Key()-lo)>>shift]++
	}
	var sum int32
	for b, c := range at[:1<<nb] {
		at[b], sum = sum, sum+c
	}
	for _, r := range rids {
		k := r.Key()
		b := (k - lo) >> shift
		keys[at[b]] = k
		at[b]++
	}
	var from int32
	for _, end := range at[:1<<nb] {
		if end-from > longBucket {
			slices.Sort(keys[from:end])
		}
		from = end
	}
}

// SortedKeys returns the Keys an in-memory list filters as, ascending
// and distinct; ok is false for any other filter.
func SortedKeys(f Filter) (keys []uint64, ok bool) {
	if s, ok := f.(*sortedKeys); ok {
		return s.keys, true
	}
	return nil, false
}

// MayContain implements Filter by binary search.
func (s *sortedKeys) MayContain(r storage.RID) bool {
	_, ok := slices.BinarySearch(s.keys, r.Key())
	return ok
}

// FilterBatch implements Filter as a galloping merge: ascending
// probes — the RIDs of one index key, which a leaf holds in RID order —
// advance one merge position through the keys, and a probe below its
// predecessor restarts the merge.
func (s *sortedKeys) FilterBatch(rids []storage.RID, keep []bool) {
	pos := 0
	var last uint64
	for i, r := range rids {
		k := r.Key()
		if k < last {
			pos = 0
		}
		pos = searchFrom(s.keys, k, pos)
		keep[i] = pos < len(s.keys) && s.keys[pos] == k
		last = k
	}
}
