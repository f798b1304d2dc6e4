// Package rid implements the RID-list machinery of the paper's joint
// scan (Section 6): in-memory RID lists that filter as their sorted
// keys, compressed exact bitmaps (a modern replacement for the hashed
// bitmap of [Babb79]) for lists that overflow and for exclusion sets,
// temporary-table spill, and the "hybrid" container that exploits the
// L-shaped distribution of RID-list sizes:
//
//	zero RIDs          -> immediate shortcut (caller observes Len()==0)
//	up to SmallCap     -> statically-sized buffer, no allocation
//	up to MemBudget    -> allocated in-memory buffer; filters as sorted keys
//	beyond             -> temporary table on disk + in-memory bitmap
//
// The paper: "Despite its simplicity, this 'hybrid' scan arrangement is
// quite advantageous due to the underlying L-shaped distribution."
//
// A completed list or bitmap is only ever probed for membership — as
// the filter of the next index scan or of the final fetch, or as the
// set of rows a scan must skip — so a filter answers membership and
// nothing else: there is no set algebra over lists.
package rid

import (
	"encoding/binary"
	"errors"

	"rdbdyn/internal/storage"
)

// ErrDiscarded is returned when a discarded container is used.
var ErrDiscarded = errors.New("rid: container discarded")

// ErrFilterOnly is returned by All on a filter-only container that
// overflowed its memory budget: only the bitmap remains.
var ErrFilterOnly = errors.New("rid: container is filter-only")

// Filter answers membership questions during RID-list intersection:
// a completed list filters the next index scan and the final fetch
// (Section 6). Every filter here is exact — sorted keys and compressed
// bitmaps have no false positives — and probes in bulk: one call
// amortizes the per-probe dispatch and lets the filter exploit
// page-clustered probe order.
type Filter interface {
	// MayContain reports whether r is in the underlying set.
	MayContain(r storage.RID) bool
	// FilterBatch sets keep[i] to MayContain(rids[i]). len(keep) must
	// be >= len(rids).
	FilterBatch(rids []storage.RID, keep []bool)
}

// TrueFilter passes everything; it stands for "no previous filter" in
// the first Jscan stage.
type TrueFilter struct{}

// MayContain implements Filter.
func (TrueFilter) MayContain(storage.RID) bool { return true }

// FilterBatch implements Filter.
func (TrueFilter) FilterBatch(rids []storage.RID, keep []bool) {
	for i := range rids {
		keep[i] = true
	}
}

// tempTable spills RIDs to disk pages through the buffer pool, so the
// spill and the read-back are charged as I/O like any other page
// traffic.
type tempTable struct {
	heap *storage.HeapFile
	pool *storage.BufferPool
	tr   *storage.Tracker // charged for spill writes and read-back

	// Reusable appendBatch scratch: an encode arena, the record-slice
	// view over it, and the RID output buffer.
	enc    []byte
	recs   [][]byte
	ridBuf []storage.RID
}

const ridRecBytes = 10 // file(4) + page(4) + slot(2)

func newTempTable(pool *storage.BufferPool, tr *storage.Tracker) *tempTable {
	return &tempTable{heap: storage.NewHeapFile(pool), pool: pool, tr: tr}
}

func encodeRID(rec []byte, r storage.RID) {
	binary.BigEndian.PutUint32(rec[0:4], uint32(r.Page.File))
	binary.BigEndian.PutUint32(rec[4:8], uint32(r.Page.No))
	binary.BigEndian.PutUint16(rec[8:10], r.Slot)
}

func (t *tempTable) append(r storage.RID) error {
	var rec [ridRecBytes]byte
	encodeRID(rec[:], r)
	_, err := t.heap.InsertTracked(rec[:], t.tr)
	return err
}

// appendBatch spills a run of RIDs, coalescing the per-record probes of
// the active heap page into one (the I/O charges stay identical to a
// per-record append loop — see HeapFile.InsertBatchTracked). It returns
// how many RIDs were written, which on error is fewer than len(rids).
func (t *tempTable) appendBatch(rids []storage.RID) (int, error) {
	need := len(rids) * ridRecBytes
	if cap(t.enc) < need {
		t.enc = make([]byte, need)
	}
	enc := t.enc[:need]
	if cap(t.recs) < len(rids) {
		t.recs = make([][]byte, len(rids))
	}
	recs := t.recs[:len(rids)]
	for i, r := range rids {
		rec := enc[i*ridRecBytes : (i+1)*ridRecBytes]
		encodeRID(rec, r)
		recs[i] = rec
	}
	out, err := t.heap.InsertBatchTracked(recs, t.tr, t.ridBuf[:0])
	t.ridBuf = out[:0]
	return len(out), err
}

// readAll streams every spilled RID back, charging page reads as the
// pages are revisited.
func (t *tempTable) readAll(visit func(storage.RID) error) error {
	c := t.heap.CursorTracked(t.tr)
	for {
		rec, _, ok, err := c.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if len(rec) != ridRecBytes {
			return errors.New("rid: corrupt temp-table record")
		}
		r := storage.RID{
			Page: storage.PageID{
				File: storage.FileID(binary.BigEndian.Uint32(rec[0:4])),
				No:   storage.PageNo(binary.BigEndian.Uint32(rec[4:8])),
			},
			Slot: binary.BigEndian.Uint16(rec[8:10]),
		}
		if err := visit(r); err != nil {
			return err
		}
	}
}

func (t *tempTable) drop() {
	t.pool.Disk().DropFile(t.heap.File())
}
