package rid

import (
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

// keysOf copies the Keys of rids once, sorts them unless they already
// are, and drops duplicates: one allocation, whatever the input order.
func keysOf(rids []storage.RID) []uint64 {
	keys := make([]uint64, len(rids))
	for i, r := range rids {
		keys[i] = r.Key()
	}
	if !slices.IsSorted(keys) {
		slices.Sort(keys)
	}
	return slices.Compact(keys)
}

// MayContain implements Filter by binary search.
func (s *sortedKeys) MayContain(r storage.RID) bool {
	_, ok := slices.BinarySearch(s.keys, r.Key())
	return ok
}

// Exact implements Filter.
func (s *sortedKeys) Exact() bool { return true }

// FilterBatch implements BatchFilter as a galloping merge: ascending
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
