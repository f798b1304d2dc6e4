package core

import (
	"rdbdyn/internal/btree"
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// acceptScratch is the per-consumer buffer set of an index scan: the
// batch its cursor fills and what pull needs to judge it. Each stepping
// scan owns one; a Jscan's two race legs take turns with it.
type acceptScratch struct {
	batch []btree.Entry // a keyed leg's entries; allocated on its first pull
	keep  []bool
	rbuf  []storage.RID // a keyless leg's RIDs, or a keyed leg's filter-probe input
	obuf  []storage.RID // a keyed leg's accepted-RID output
	row   expr.Row      // the key kernel's scratch
}

// firstBatch sizes a stepping scan's first batches: most index ranges
// end within it, and a scan that fills its batches doubles them up to a
// step (pull).
const firstBatch = 16

func newAcceptScratch(n int) *acceptScratch {
	return &acceptScratch{
		keep: make([]bool, n),
		rbuf: make([]storage.RID, n),
		obuf: make([]storage.RID, 0, n),
	}
}

// pull is the one read every index leg makes — a Jscan scan or race
// leg, a Uscan leg, an Sscan: src's next batch of at most budget
// entries, through the previous list's filter and the key kernel local
// (nil = none); with out (an Sscan's queue) local also delivers each
// survivor there. It returns how many entries it read (0: src is
// exhausted) and the surviving RIDs in scan order, valid until the next
// call with the same scratch. A keyless leg — no kernel, no delivery, a
// forward cursor — reads RIDs straight off the leaf and filters them in
// place; when point says its range is one full key value, so its RIDs
// ascend, and the filter is an in-memory list's sorted keys, it seeks
// the list's members among them instead (Cursor.NextRIDsIn). A keyed
// leg reads entries (acceptEntries).
func pull(src entryCursor, budget int, ix *catalog.Index, local *rowKernel, out *rowQueue, filter rid.Filter, point bool, sc *acceptScratch) (n int, kept []storage.RID, err error) {
	if cur, ok := src.(*btree.Cursor); ok && local == nil && out == nil {
		rids := sc.rbuf[:min(budget, len(sc.rbuf))]
		if keys, sorted := rid.SortedKeys(filter); sorted && point {
			n, kept, err = cur.NextRIDsIn(keys, rids)
		} else if n, err = cur.NextRIDs(rids); n > 0 {
			kept = keepMembers(filter, rids[:n], sc.keep, rids[:0])
		}
		if err != nil || n == 0 {
			return 0, nil, err
		}
	} else {
		if len(sc.batch) != len(sc.keep) {
			sc.batch = make([]btree.Entry, len(sc.keep))
		}
		batch := sc.batch[:min(budget, len(sc.batch))]
		if n, err = src.NextBatch(batch); err != nil || n == 0 {
			return 0, nil, err
		}
		if kept, err = acceptEntries(batch[:n], ix, local, out, filter, sc); err != nil {
			return n, nil, err
		}
	}
	if n == len(sc.keep) && n < stepEntries {
		row := sc.row // a full batch earns the scan bigger ones
		*sc = *newAcceptScratch(2 * n)
		sc.row = row
	}
	return n, kept, nil
}

// keepMembers appends to dst the RIDs of rids that filter admits, in
// one bulk probe; dst may be rids[:0], which filters in place.
func keepMembers(filter rid.Filter, rids []storage.RID, keep []bool, dst []storage.RID) []storage.RID {
	keep = keep[:len(rids)]
	filter.FilterBatch(rids, keep)
	for i, r := range rids {
		if keep[i] {
			dst = append(dst, r)
		}
	}
	return dst
}

// acceptEntries applies the previous list's filter and the index-local
// restriction (a key kernel; nil = none) to a batch of entries,
// returning the surviving RIDs in scan order; with out (an Sscan's
// queue) the kernel also delivers each survivor there. The filter runs
// first as one bulk probe (both predicates are pure, so the order does
// not change the kept set), and — because the filter is exact — every
// entry it rejects skips the key decode entirely.
func acceptEntries(entries []btree.Entry, ix *catalog.Index, local *rowKernel, out *rowQueue, filter rid.Filter, sc *acceptScratch) ([]storage.RID, error) {
	rids := sc.rbuf[:len(entries)]
	keep := sc.keep[:len(entries)]
	for i, e := range entries {
		rids[i] = e.RID
	}
	filter.FilterBatch(rids, keep)
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
	return kept, nil
}
