package core

import (
	"rdbdyn/internal/btree"
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// Operator is the composable streaming face of the scan machinery: a
// pull-based producer of index-entry batches. B-tree cursors (forward
// and reverse) are operators directly; wrappers add a consumption bound
// (partition workers) without changing the charge profile, and
// acceptEntries turns an entry batch into the surviving RIDs through
// the bitmap filter and index-local restriction. Jscan's sequential
// path, both race legs, and every partition worker all drive the same
// operator + acceptEntries pipeline, differing only in which scratch
// buffers they own — which is what lets race legs and partition workers
// run on their own goroutines.
type Operator interface {
	// NextBatch fills dst with up to len(dst) entries and returns how
	// many it produced; 0 means the operator is exhausted. Charges are
	// identical to per-entry iteration.
	NextBatch(dst []btree.Entry) (int, error)
	// Close releases held resources (leaf pins). Idempotent and
	// required when abandoning the operator before exhaustion.
	Close()
}

var (
	_ Operator = (*btree.Cursor)(nil)
	_ Operator = (*btree.ReverseCursor)(nil)
)

// boundedOp caps an operator at a fixed number of entries — the shape
// of an interior partition worker, which owns whole leaves and must
// stop exactly at its boundary without touching the next worker's first
// leaf. Each NextBatch clamps the destination to the remaining budget,
// and NextBatch never hops past the leaf that satisfies the clamp, so
// the bound adds no page charges.
type boundedOp struct {
	src       Operator
	remaining int64
}

func (b *boundedOp) NextBatch(dst []btree.Entry) (int, error) {
	if b.remaining <= 0 {
		return 0, nil
	}
	if int64(len(dst)) > b.remaining {
		dst = dst[:b.remaining]
	}
	n, err := b.src.NextBatch(dst)
	b.remaining -= int64(n)
	return n, err
}

func (b *boundedOp) Close() { b.src.Close() }

// acceptScratch is the per-consumer buffer set of an entry scan: the
// batch its operator fills and what acceptEntries needs to judge it.
// Every concurrent consumer (the sequential scan, each race leg, each
// partition worker) owns one, so batch acceptance never shares state.
type acceptScratch struct {
	batch []btree.Entry
	keep  []bool
	rbuf  []storage.RID // filter-probe input
	obuf  []storage.RID // accepted-RID output
	row   expr.Row      // the key kernel's scratch
}

// firstBatch sizes a stepping scan's first batches: most index ranges
// end within it, and a scan that fills its batches doubles them up to a
// step (acceptEntries). Eager workers start at a full step.
const firstBatch = 16

func newAcceptScratch(n int) *acceptScratch {
	return &acceptScratch{
		batch: make([]btree.Entry, n),
		keep:  make([]bool, n),
		rbuf:  make([]storage.RID, n),
		obuf:  make([]storage.RID, 0, n),
	}
}

// acceptEntries applies the previous list's filter and the index-local
// restriction (a key kernel; nil = none) to a batch of entries,
// returning the surviving RIDs in scan order; with out (an Sscan's
// queue) the kernel also delivers each survivor there. The returned
// slice stays valid until the next call with the same scratch. The
// filter runs first as one bulk probe (both predicates are pure, so the
// order does not change the kept set), and — because the filter is
// exact — every entry it rejects skips the key decode entirely. filter
// may be probed from several goroutines at once: completed filters are
// read-only.
func acceptEntries(entries []btree.Entry, ix *catalog.Index, local *rowKernel, out *rowQueue, filter rid.Filter, sc *acceptScratch) ([]storage.RID, error) {
	rids := sc.rbuf[:len(entries)]
	keep := sc.keep[:len(entries)]
	for i, e := range entries {
		rids[i] = e.RID
	}
	rid.ApplyFilter(filter, rids, keep)
	kept := sc.obuf[:0]
	for i, e := range entries {
		if !keep[i] {
			continue
		}
		if local != nil {
			if ok, err := local.entry(ix, e.Key, &sc.row); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			if out != nil {
				local.emit(e.RID, &sc.row, out)
			}
		}
		kept = append(kept, e.RID)
	}
	sc.obuf = kept[:0]
	if n := len(entries); n == len(sc.batch) && n < stepEntries {
		row := sc.row // a full batch earns the scan bigger ones
		*sc = *newAcceptScratch(2 * n)
		sc.row = row
	}
	return kept, nil
}
