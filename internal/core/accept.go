package core

import (
	"rdbdyn/internal/btree"
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// acceptScratch is the per-consumer buffer set of an entry scan: the
// batch its cursor fills and what acceptEntries needs to judge it.
// Every concurrent consumer (the sequential scan, each goroutine race
// leg) owns one, so batch acceptance never shares state.
type acceptScratch struct {
	batch []btree.Entry
	keep  []bool
	rbuf  []storage.RID // filter-probe input
	obuf  []storage.RID // accepted-RID output
	row   expr.Row      // the key kernel's scratch
}

// firstBatch sizes a stepping scan's first batches: most index ranges
// end within it, and a scan that fills its batches doubles them up to a
// step (acceptEntries). Goroutine race legs start at a full step.
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
