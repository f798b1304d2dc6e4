package storage

import "sync/atomic"

// HeapFile stores table records in page-append order. It remembers the
// last page with free space so bulk loads fill pages densely; there is
// no free-space map, matching the simple heap organization the paper's
// Tscan and record-fetch costs assume.
//
// Mutating methods (Insert, Delete) must be serialized by the caller —
// the catalog serializes them per table. Read paths (Get, Cursor) are
// safe to run concurrently with each other.
type HeapFile struct {
	pool *BufferPool
	file FileID
	// lastPage caches the page currently receiving inserts.
	lastPage PageNo
	havePage bool
	count    atomic.Int64
}

// NewHeapFile creates a heap file on a fresh disk file.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, file: pool.Disk().CreateFile()}
}

// File returns the underlying disk file ID.
func (h *HeapFile) File() FileID { return h.file }

// NumPages returns the number of pages in the heap.
func (h *HeapFile) NumPages() int { return h.pool.Disk().NumPages(h.file) }

// Count returns the number of live records inserted (minus deletions).
func (h *HeapFile) Count() int64 { return h.count.Load() }

// Insert appends rec and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) { return h.InsertTracked(rec, nil) }

// InsertTracked is Insert charging buffer-pool traffic to tr.
func (h *HeapFile) InsertTracked(rec []byte, tr *Tracker) (RID, error) {
	if h.havePage {
		id := PageID{File: h.file, No: h.lastPage}
		p, err := h.pool.GetTracked(id, tr)
		if err != nil {
			return RID{}, err
		}
		// Mark dirty only on success: a full page probed and left alone
		// must not be charged a write-back.
		if slot, err := p.Insert(rec); err == nil {
			h.pool.MarkDirty(id)
			h.count.Add(1)
			return RID{Page: id, Slot: slot}, nil
		} else if err != ErrPageFull {
			return RID{}, err
		}
	}
	p, err := h.pool.NewPageTracked(h.file, tr)
	if err != nil {
		return RID{}, err
	}
	slot, err := p.Insert(rec)
	if err != nil {
		return RID{}, err
	}
	h.lastPage = p.ID.No
	h.havePage = true
	h.count.Add(1)
	return RID{Page: p.ID, Slot: slot}, nil
}

// InsertBatchTracked appends recs in order, returning their RIDs
// appended to out (on error, out holds the RIDs inserted so far). The
// buffer-pool charges are exactly what a per-record InsertTracked loop
// would produce: every record probes the active page once (the first
// probe of a run is a real Get — hit or miss — and the rest are
// credited as hits, since the page cannot leave the pool between
// probes), a record that overflows the page still pays its probe before
// landing on a fresh page, and each touched page is marked dirty. Only
// the governor check coarsens: once per page run instead of per record.
func (h *HeapFile) InsertBatchTracked(recs [][]byte, tr *Tracker, out []RID) ([]RID, error) {
	for i := 0; i < len(recs); {
		if h.havePage {
			id := PageID{File: h.file, No: h.lastPage}
			p, err := h.pool.GetTracked(id, tr)
			if err != nil {
				return out, err
			}
			first, n, serr := p.InsertBatch(recs[i:])
			for s := 0; s < n; s++ {
				out = append(out, RID{Page: id, Slot: first + uint16(s)})
			}
			if n > 0 {
				h.count.Add(int64(n))
				h.pool.MarkDirty(id)
			}
			// Every record probes the active page once: the first probe is
			// the real GetTracked above, each later record's probe is a hit,
			// and the record that stopped the run (overflow or too big)
			// still paid its probe before failing.
			hits := n - 1
			if i+n < len(recs) {
				hits = n
			}
			h.pool.ChargeHits(hits, tr)
			if serr != nil {
				return out, serr
			}
			i += n
			if i >= len(recs) {
				return out, nil
			}
		}
		// Land recs[i] on a fresh page, which becomes the active page.
		p, err := h.pool.NewPageTracked(h.file, tr)
		if err != nil {
			return out, err
		}
		slot, err := p.Insert(recs[i])
		if err != nil {
			return out, err
		}
		h.lastPage = p.ID.No
		h.havePage = true
		h.count.Add(1)
		out = append(out, RID{Page: p.ID, Slot: slot})
		i++
	}
	return out, nil
}

// Get fetches the record at rid through the buffer pool.
func (h *HeapFile) Get(rid RID) ([]byte, error) { return h.GetTracked(rid, nil) }

// GetTracked is Get charging the page fetch to tr.
func (h *HeapFile) GetTracked(rid RID, tr *Tracker) ([]byte, error) {
	p, err := h.pool.GetTracked(rid.Page, tr)
	if err != nil {
		return nil, err
	}
	return p.Get(rid.Slot)
}

// GetSpanTracked fetches the page holding a clustered run of span
// records, charged as span record accesses (one potential miss plus
// span-1 hits) — exactly what span GetTracked calls on the same page
// would cost. Callers extract the individual records from the returned
// page.
func (h *HeapFile) GetSpanTracked(id PageID, span int, tr *Tracker) (*Page, error) {
	return h.pool.GetSpanTracked(id, span, tr)
}

// Delete tombstones the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	p, err := h.pool.GetDirty(rid.Page)
	if err != nil {
		return err
	}
	if err := p.Delete(rid.Slot); err != nil {
		return err
	}
	h.count.Add(-1)
	return nil
}

// Cursor returns a sequential scan cursor positioned before the first
// record. This is the physical engine under Tscan.
func (h *HeapFile) Cursor() *HeapCursor {
	return &HeapCursor{heap: h, page: 0, slot: -1}
}

// CursorTracked is Cursor charging every page fetch to tr.
func (h *HeapFile) CursorTracked(tr *Tracker) *HeapCursor {
	return &HeapCursor{heap: h, page: 0, slot: -1, tr: tr}
}

// RangeCursorTracked returns a cursor over the half-open physical page
// range [start, end), charging every page fetch to tr. Partitioned
// Tscan hands each worker one contiguous range: the union of the
// workers' page fetches is exactly the sequential cursor's fetches.
func (h *HeapFile) RangeCursorTracked(start, end PageNo, tr *Tracker) *HeapCursor {
	return &HeapCursor{heap: h, page: start, slot: -1, tr: tr, limit: end, bounded: true}
}

// HeapCursor iterates records in physical (page, slot) order. It pins
// its current page and unpins it on page transitions, exhaustion, or
// Close; callers abandoning the cursor early must Close it.
type HeapCursor struct {
	heap    *HeapFile
	page    PageNo
	slot    int
	cur     *Page
	pinned  bool
	tr      *Tracker
	limit   PageNo // exclusive upper page bound when bounded
	bounded bool
}

// bound returns the exclusive page number the cursor stops at: the end
// of its range partition if bounded, else the current heap size.
func (c *HeapCursor) bound() PageNo {
	n := PageNo(c.heap.NumPages())
	if c.bounded && c.limit < n {
		n = c.limit
	}
	return n
}

// Next advances to the next live record. It returns the record, its
// RID, and false when the scan is exhausted. The bound is read when the
// cursor moves to a page, not per record (it costs the disk's mutex), so
// a heap that grows between pages is still seen.
func (c *HeapCursor) Next() ([]byte, RID, bool, error) {
	for {
		if c.cur == nil || c.cur.ID.No != c.page {
			n := c.bound()
			if c.page >= n {
				c.unpin()
				return nil, RID{}, false, nil
			}
			p, err := c.heap.pool.GetTracked(PageID{File: c.heap.file, No: c.page}, c.tr)
			if err != nil {
				return nil, RID{}, false, err
			}
			c.unpin()
			c.cur = p
			c.heap.pool.Pin(p.ID)
			c.pinned = true
		}
		c.slot++
		for c.slot < c.cur.NumSlots() {
			rec, err := c.cur.Get(uint16(c.slot))
			if err == nil {
				return rec, RID{Page: c.cur.ID, Slot: uint16(c.slot)}, true, nil
			}
			c.slot++ // tombstone
		}
		c.page++
		c.slot = -1
	}
}

func (c *HeapCursor) unpin() {
	if c.pinned {
		c.heap.pool.Unpin(c.cur.ID)
		c.pinned = false
	}
}

// Close releases the cursor's page pin. Idempotent; an exhausted cursor
// has already unpinned itself.
func (c *HeapCursor) Close() {
	c.unpin()
	c.page = c.bound()
	c.slot = -1
}

// PagesRemaining reports how many pages the cursor has not yet entered.
// Competition uses it to project the remaining Tscan cost.
func (c *HeapCursor) PagesRemaining() int {
	n := int(c.bound())
	done := int(c.page)
	if done > n {
		done = n
	}
	return n - done
}
