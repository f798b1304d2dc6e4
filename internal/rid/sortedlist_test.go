package rid

import (
	"slices"
	"sort"

	"rdbdyn/internal/storage"
)

// SortedList is an exact filter over a sorted RID slice: the scalar
// baseline the compressed bitmap is benchmarked against and a simple
// oracle for its tests. The engine uses CompressedBitmap.
type SortedList struct {
	rids []storage.RID
}

// NewSortedList copies and sorts rids.
func NewSortedList(rids []storage.RID) *SortedList {
	s := &SortedList{rids: append([]storage.RID(nil), rids...)}
	slices.SortFunc(s.rids, storage.RID.Compare)
	return s
}

// Len returns the number of RIDs.
func (s *SortedList) Len() int { return len(s.rids) }

// MayContain implements Filter by binary search.
func (s *SortedList) MayContain(r storage.RID) bool {
	i := sort.Search(len(s.rids), func(i int) bool { return !s.rids[i].Less(r) })
	return i < len(s.rids) && s.rids[i] == r
}

// Exact implements Filter.
func (s *SortedList) Exact() bool { return true }
