// Package storage implements the paged storage substrate used by every
// other component of the repository: an in-memory simulated disk holding
// slotted pages, a buffer pool with LRU replacement, heap files for table
// records, and I/O statistics.
//
// The buffer pool is the cost currency of the whole reproduction. The
// dynamic optimizer described in the paper reasons about retrieval cost in
// units of page I/Os; here every buffer-pool miss counts as one simulated
// read and every dirty-page eviction or explicit flush counts as one
// simulated write. Operators attribute costs to themselves by passing a
// per-query Tracker down through the tracked pool accessors (GetTracked,
// GetDirtyTracked, NewPageTracked); the pool charges each hit, miss, and
// eviction write-back to both the global atomic counters and the tracker,
// so attribution stays exact even while many queries run concurrently.
// The pool itself is sharded (see BufferPool) so unrelated page touches
// do not contend on one mutex.
package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// DefaultPageSize is the byte budget of a page when a Disk is created
// with size 0. It mirrors a common database page size.
const DefaultPageSize = 8192

// slotOverhead is the per-record bookkeeping charge inside a page. It
// models the slot directory entry of a classic slotted page.
const slotOverhead = 4

// Errors returned by the storage layer.
var (
	ErrPageFull     = errors.New("storage: page full")
	ErrNoSuchPage   = errors.New("storage: no such page")
	ErrNoSuchSlot   = errors.New("storage: no such slot")
	ErrNoSuchFile   = errors.New("storage: no such file")
	ErrRecordTooBig = errors.New("storage: record exceeds page capacity")
)

// FileID names a file on the simulated disk.
type FileID uint32

// PageNo is the ordinal of a page within a file.
type PageNo uint32

// PageID uniquely names a page on the disk.
type PageID struct {
	File FileID
	No   PageNo
}

func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.No) }

// RID is a record identifier: the page and slot where a record lives.
// RIDs are the values stored in index leaves and the items carried by
// RID lists during Jscan.
type RID struct {
	Page PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("%s.%d", r.Page, r.Slot) }

// Less orders RIDs by file, page, then slot. Sorting a RID list into
// this order makes the final fetch stage visit each page once.
func (r RID) Less(o RID) bool {
	if r.Page.File != o.Page.File {
		return r.Page.File < o.Page.File
	}
	if r.Page.No != o.Page.No {
		return r.Page.No < o.Page.No
	}
	return r.Slot < o.Slot
}

// Key packs the RID into an integer that preserves Less order for file
// IDs below 2^16. It is the hash input for bitmap filters; the file ID
// is mixed in so RIDs in different files with the same page and slot do
// not collide.
func (r RID) Key() uint64 {
	return uint64(r.Page.File)<<48 | uint64(r.Page.No)<<16 | uint64(r.Slot)
}

// Compare returns -1, 0, or +1 ordering r against o.
func (r RID) Compare(o RID) int {
	switch {
	case r.Less(o):
		return -1
	case o.Less(r):
		return 1
	default:
		return 0
	}
}

// IOStats counts simulated I/O and cache traffic. The zero value is
// ready to use.
type IOStats struct {
	Reads  int64 // pages read from disk (buffer-pool misses)
	Writes int64 // pages written to disk (evictions and flushes)
	Hits   int64 // buffer-pool hits
}

// IOCost is the total number of simulated physical I/Os (reads+writes).
// It is the quantity the paper's cost model minimizes.
func (s IOStats) IOCost() int64 { return s.Reads + s.Writes }

// Sub returns the component-wise difference s-o. Operators use it to
// attribute cost to a step: Sub(snapshotBefore).
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes, Hits: s.Hits - o.Hits}
}

// Add returns the component-wise sum s+o.
func (s IOStats) Add(o IOStats) IOStats {
	return IOStats{Reads: s.Reads + o.Reads, Writes: s.Writes + o.Writes, Hits: s.Hits + o.Hits}
}

func (s IOStats) String() string {
	return fmt.Sprintf("reads=%d writes=%d hits=%d", s.Reads, s.Writes, s.Hits)
}

// Tracker accumulates the I/O charged to one consumer — typically one
// scan leg of one query. The tracked BufferPool accessors charge it in
// addition to the pool's global counters, which keeps per-step cost
// attribution exact while other queries hammer the same pool (the
// global-delta snapshot trick the engine used before is wrong under
// concurrency).
//
// All methods are safe for concurrent use, and all are safe on a nil
// receiver (a nil tracker charges nothing), so untracked call sites pay
// only a nil check.
//
// A tracker may carry a Governor (see NewTracker): every read and write
// it records is also charged against the governor's per-query budget,
// and the buffer pool consults Err before each page access, turning the
// pool into the cooperative cancellation checkpoint.
type Tracker struct {
	reads  atomic.Int64
	writes atomic.Int64
	hits   atomic.Int64
	gov    *Governor
}

// NewTracker returns a tracker charging gov (which may be nil for an
// ungoverned tracker, equivalent to new(Tracker)).
func NewTracker(gov *Governor) *Tracker {
	return &Tracker{gov: gov}
}

// Err reports why the tracked query must stop (context cancelled,
// deadline expired, or I/O budget exhausted), or nil to continue. The
// buffer pool calls it before every page access on behalf of the query.
func (t *Tracker) Err() error {
	if t == nil {
		return nil
	}
	return t.gov.Err()
}

// Governor returns the tracker's governor (nil if ungoverned).
func (t *Tracker) Governor() *Governor {
	if t == nil {
		return nil
	}
	return t.gov
}

func (t *Tracker) read() {
	if t != nil {
		t.reads.Add(1)
		t.gov.charge(1)
	}
}

func (t *Tracker) write() {
	if t != nil {
		t.writes.Add(1)
		t.gov.charge(1)
	}
}

func (t *Tracker) hit() {
	if t != nil {
		t.hits.Add(1)
	}
}

// hitN records n hits at once; batched accessors use it to charge a
// clustered run of record accesses in one step. Hits never charge the
// governor (they cost no physical I/O), matching hit().
func (t *Tracker) hitN(n int64) {
	if t != nil && n > 0 {
		t.hits.Add(n)
	}
}

// Stats returns a snapshot of the tracker's counters.
func (t *Tracker) Stats() IOStats {
	if t == nil {
		return IOStats{}
	}
	return IOStats{Reads: t.reads.Load(), Writes: t.writes.Load(), Hits: t.hits.Load()}
}

// IOCost returns reads+writes charged so far — the paper's cost unit.
func (t *Tracker) IOCost() int64 {
	if t == nil {
		return 0
	}
	return t.reads.Load() + t.writes.Load()
}

// MergeStats folds a counter snapshot into t. Merging is associative
// and commutative (the counters are sums), so any partition of a scan's
// charges across worker trackers, merged in any order and grouping,
// equals the sequential total — the invariant partitioned scans rely on
// for exact per-query attribution.
//
// The governor is deliberately NOT charged: worker trackers share the
// query's governor and charged it live at access time, so a merge is
// pure bookkeeping and the budget is never double-counted.
func (t *Tracker) MergeStats(s IOStats) {
	if t == nil {
		return
	}
	t.reads.Add(s.Reads)
	t.writes.Add(s.Writes)
	t.hits.Add(s.Hits)
}

// Reset zeroes the tracker.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.reads.Store(0)
	t.writes.Store(0)
	t.hits.Store(0)
}
