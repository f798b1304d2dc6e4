package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// Partitioned intra-query execution (Config.Parallelism > 1).
//
// Every partitioned site is fanOut over its scan shape's one kernel —
// the per-row code the step-sliced sequential path runs with its step
// budget, run unbounded on each worker: Tscan's page ranges over
// tscan.scanRows, Fin's page-aligned RID chunks over finalStage.fetch,
// Uscan's OR legs over uscan.scanLeg, Jscan's leaf-aligned key
// partitions over acceptEntries, and a join stage's round of upstream
// rows over probeOne / hashProbe (join.go). Partitions are
// contiguous and worker results merge in partition order, so the
// concatenation is the sequential output order. DESIGN.md ("Streaming
// operators and intra-query parallelism") has the contract and the
// kernel table; the eligibility gates are documented where they live
// (tscan.step, finalStage.step, maybeParallelLegs, partitionDisqualifier).

// fanOut runs work(i, tr, stop) for every i in [0, n) and returns at the
// barrier, so no goroutine outlives the step() that called it. Each
// worker charges its own tracker on parent's governor (the budget is
// enforced live); the trackers merge into parent in index order before
// any error is returned (Tracker.Merge is associative, so attributed
// totals equal the sequential scan's and stay exact for a query unwound
// mid-scan). The first failing worker sets stop, which siblings poll at
// their batch boundaries — the buffer pool's governor checkpoint bounds
// that to about one page access — and a worker may set it itself to end
// the fan-out early. The lowest-index worker's error wins. n == 1 runs
// inline on parent: sequential is width 1 of the same code, and spawns
// nothing.
func fanOut(parent *storage.Tracker, n int, work func(i int, tr *storage.Tracker, stop *atomic.Bool) error) error {
	var stop atomic.Bool
	if n == 1 {
		return work(0, parent, &stop)
	}
	trs := make([]*storage.Tracker, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range trs {
		trs[i] = storage.NewTracker(parent.Governor())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = work(i, trs[i], &stop); errs[i] != nil {
				stop.Store(true)
			}
		}(i)
	}
	wg.Wait()
	var first error
	for i, tr := range trs {
		parent.Merge(tr)
		if first == nil {
			first = errs[i]
		}
	}
	return first
}

// runParallelScan is the eager partitioned Tscan: the heap's page range
// splits into contiguous chunks, one bounded range cursor per worker.
// Every heap page is read exactly once by exactly one worker — the same
// multiset of page accesses as the sequential cursor — and each
// worker's readahead window stays inside its own partition. Returns
// false when the heap is too small to split.
func (t *tscan) runParallelScan() (bool, error) {
	heap := t.q.Table.Heap
	npages := heap.NumPages()
	k := min(t.workers, npages)
	if k < 2 {
		return false, nil
	}
	outs := make([]rowQueue, k)
	err := fanOut(t.m.tr, k, func(i int, tr *storage.Tracker, stop *atomic.Bool) error {
		cur := heap.RangeCursorTracked(storage.PageNo(i*npages/k), storage.PageNo((i+1)*npages/k), tr)
		defer cur.Close()
		var scratch expr.Row
		_, err := t.scanRows(cur, 0, stop, &scratch, &outs[i])
		return err
	})
	if err != nil {
		return false, err
	}
	for i := range outs {
		t.out.rows = append(t.out.rows, outs[i].rows...)
	}
	t.done = true
	return true, nil
}

// runParallelFetch is the eager partitioned final fetch: the sorted RID
// list splits into contiguous chunks aligned to page boundaries (a
// same-page run is never split across workers, so each data page is
// span-fetched by exactly one worker and the hit/miss profile matches
// the sequential clustered fetch), each with a private prefetch window
// staged inside the chunk. Returns false when the list does not split.
func (f *finalStage) runParallelFetch() (bool, error) {
	rids := f.c.rids
	k := min(f.workers, len(rids)/(2*finalFetchBudget))
	if k < 2 {
		return false, nil
	}
	// Chunk boundaries: the nominal even split, advanced to the next
	// page transition.
	starts := make([]int, 0, k+1)
	starts = append(starts, 0)
	for i := 1; i < k; i++ {
		b := i * len(rids) / k
		if b <= starts[len(starts)-1] {
			continue
		}
		for b < len(rids) && rids[b].Page == rids[b-1].Page {
			b++
		}
		if b >= len(rids) || b <= starts[len(starts)-1] {
			continue
		}
		starts = append(starts, b)
	}
	if len(starts) < 2 {
		return false, nil
	}
	starts = append(starts, len(rids))
	outs := make([]rowQueue, len(starts)-1)
	err := fanOut(f.m.tr, len(outs), func(i int, tr *storage.Tracker, stop *atomic.Bool) error {
		c := newFetchCursor(rids[starts[i]:starts[i+1]])
		_, err := f.fetch(&c, tr, 0, stop, &outs[i])
		return err
	})
	if err != nil {
		return false, err
	}
	for i := range outs {
		f.out.rows = append(f.out.rows, outs[i].rows...)
	}
	f.done = true
	return true, nil
}

// maybeParallelLegs fans the union scan out across its OR legs: each
// leg is an independent index range on its own index, so legs are the
// natural partitions. Each worker scans a contiguous run of legs — seek
// (one charged descent) then the leg kernel to exhaustion — and RIDs
// append to the union list in leg order at the barrier, so the list
// content and order equal the sequential leg-by-leg scan exactly. Leg
// scan-started events are emitted at the barrier, also in leg order
// (events feed no counters, so Metrics stay identical).
//
// The gate mirrors the Jscan discipline: competition must be disabled
// (union abandonment is all-or-nothing and interleaved with stepping;
// eager legs could never be abandoned mid-flight) and no borrow queue
// may be attached (the fast-first stream must progress at step
// cadence). Fresh scans only — any consumed leg falls back to the
// sequential path.
func (u *uscan) maybeParallelLegs() (bool, error) {
	if u.idx != 0 || u.seen != 0 || u.cur != nil || len(u.legs) < 2 ||
		!u.cfg.DisableCompetition || u.borrow != nil {
		return false, nil
	}
	if u.cfg.effectiveWorkers() < 2 {
		return false, nil
	}
	// The union's appraised work is the sum of its legs' scans.
	var estIO float64
	for _, l := range u.legs {
		estIO += u.model.LeafPages(l.Est, l.Index.Tree.AvgLeafEntries()) +
			float64(l.Index.Tree.Height())
	}
	n := len(u.legs)
	k := min(decideWidth(u.cfg, u.ec, u.trc, "Uscan", estIO), n)
	if k < 2 {
		return false, nil
	}
	rids := make([][]storage.RID, n)
	seen := make([]int, n)
	err := fanOut(u.m.tr, k, func(w int, tr *storage.Tracker, stop *atomic.Bool) error {
		ls := legScan{sc: newAcceptScratch(stepEntries), private: true}
		for i := w * n / k; i < (w+1)*n/k && !stop.Load(); i++ {
			leg := &u.legs[i]
			cur, err := leg.Index.Tree.SeekTracked(leg.Lo, leg.Hi, tr)
			if err != nil {
				return err
			}
			ls.rids = nil
			seen[i], _, err = u.scanLeg(leg, cur, &ls, 0, stop)
			cur.Close()
			if err != nil {
				return err
			}
			rids[i] = ls.rids
		}
		return nil
	})
	if err != nil {
		return true, err
	}
	for i, leg := range u.legs {
		u.names = append(u.names, leg.Index.Name)
		u.trc.emit(TraceEvent{
			Kind: EvScanStarted, Scan: u.name(), Indexes: []string{leg.Index.Name}, ActualIO: u.m.cost(),
			Detail: fmt.Sprintf("leg %d/%d, est %.0f rids (parallel worker)", i+1, n, leg.Est),
		})
		u.seen += seen[i]
		if err := u.list.AppendBatch(rids[i]); err != nil {
			return true, err
		}
	}
	u.finish()
	return true, nil
}

// partitionLimitCap returns the exact-count cap a partitioned Jscan may
// stop at, or 0 when the scan must run its full range. A capped scan
// collects candidate RIDs until the cross-worker fill counter reaches
// the query's Limit, then cancels its siblings — valid only when every
// collected RID is guaranteed to survive the final stage's
// full-restriction re-evaluation and reach the caller:
//
//   - adaptive mode only: static widths keep the exact sequential
//     full-range behaviour the equivalence tests pin;
//   - no ORDER BY: under a bare LIMIT any N matching rows are a
//     correct answer, so stopping at the first N collected is valid;
//   - this is the last index (j.idx past the estimates): a later scan
//     would intersect the list below the cap;
//   - the filter is still TrueFilter: an installed filter is a
//     may-contain structure, so survivors are not guaranteed matches;
//   - the index covers the whole restriction: acceptEntries then
//     evaluates the full predicate on the decoded entry, so every kept
//     RID is a definite match.
func (j *jscan) partitionLimitCap() int {
	if !j.cfg.AdaptiveParallelism || j.q.Limit <= 0 || len(j.q.OrderBy) != 0 {
		return 0
	}
	if j.idx < len(j.ests) {
		return 0
	}
	if _, exact := j.filter.(rid.TrueFilter); !exact {
		return 0
	}
	if !j.scan.ix.Covers(expr.Columns(j.q.Restriction)) {
		return 0
	}
	return j.q.Limit
}

// partitionDisqualifier returns why the current scan must stay on the
// sequential path ("" = eligible to partition). Exactly one reason is
// reported — the first that applies — and each is asserted individually
// by TestJscanPartitionGate.
func (j *jscan) partitionDisqualifier() string {
	switch {
	case !j.partitionable:
		// A continued race loser resumes mid-range on an arbitrary
		// operator; there are no fresh range bounds to partition.
		return "continued scan"
	case j.scan.seen != 0:
		// Entries were already consumed sequentially; an eager
		// partition pass over the full range would double-charge them.
		return "rows already seen"
	case !j.cfg.DisableCompetition:
		// Abandonment decisions are interleaved with scanning; a scan
		// that ran eagerly to completion could never be abandoned
		// mid-flight, changing the competition's observable outcomes.
		return "competition enabled"
	case j.borrow != nil:
		// A fast-first borrow stream must progress at the sequential
		// step cadence: the foreground can kill the background the
		// moment it finishes delivering, and how far the background got
		// by then is observable in the query's attributed I/O.
		return "borrow queue attached"
	case j.q.Limit != 0 && j.partitionLimitCap() == 0:
		// Early termination at the Limit is worth more than
		// parallelism — unless the adaptive exact-count cap applies, in
		// which case the partitioned scan stops at the cap itself.
		return "limit without exact-count cap"
	}
	return ""
}

// maybePartitionedScan is the eager partitioned Jscan: when the gate
// (partitionDisqualifier) clears, the current index scan's key range
// splits into leaf-aligned partitions and every worker filters its own
// slice through the shared (read-only) bitmap filter and a private
// accept scratch. Worker 0 continues on the already-opened cursor —
// whose tracked Seek charged the shared descent exactly as a sequential
// scan would — while later workers open directly on their first leaf
// for one charge apiece. Under an exact-count cap (partitionLimitCap)
// workers share a fill counter and the first to reach the cap cancels
// its siblings at their next batch boundary. Returns handled when the
// scan completed (or failed) under the parallel path.
func (j *jscan) maybePartitionedScan() (bool, error) {
	if j.cfg.effectiveWorkers() < 2 || j.partitionDisqualifier() != "" {
		return false, nil
	}
	sq := &j.scan
	limitCap := j.partitionLimitCap()
	// The adaptive policy sees the work the scan will actually do: the
	// full range, or only the leaves needed to fill the cap.
	est := sq.rangeEst
	if limitCap > 0 && float64(limitCap) < est {
		est = float64(limitCap)
	}
	estIO := j.model.LeafPages(est, sq.ix.Tree.AvgLeafEntries()) + float64(sq.ix.Tree.Height())
	workers := decideWidth(j.cfg, j.ec, j.trc, "Jscan", estIO)
	if workers < 2 {
		return false, nil
	}
	parts, err := sq.ix.Tree.PartitionRange(j.curLo, j.curHi, workers)
	if err != nil || len(parts) < 2 {
		// Planning trouble or a range too small to split: scan
		// sequentially. Planning is accounting-free, so falling back
		// costs nothing.
		return false, nil
	}
	n := len(parts)
	legs := make([]raceLeg, n) // each partition's share of the scan
	// fill counts collected RIDs across all workers when an exact-count
	// cap applies; the worker whose batch reaches the cap sets the stop
	// flag, so siblings overshoot by at most one batch (about one leaf
	// access) before unwinding at their next NextBatch check.
	var fill atomic.Int64
	err = fanOut(j.m.tr, n, func(i int, tr *storage.Tracker, stop *atomic.Bool) error {
		var src Operator = sq.cur // worker 0: descent already charged to the shared meter
		if i > 0 {
			c, err := sq.ix.Tree.SeekPartitionLeaf(parts[i].Leaf, j.curHi, tr)
			if err != nil {
				return err
			}
			src = c
		}
		defer src.Close()
		if i < n-1 {
			// Interior partitions own whole leaves; the exact count
			// stops them at their boundary without touching the next
			// worker's first leaf. The last partition terminates on
			// the range bound like a sequential scan.
			src = &boundedOp{src: src, remaining: parts[i].Count}
		}
		sc := newAcceptScratch(stepEntries)
		leg := &legs[i]
		leg.ix, leg.local = sq.ix, sq.local
		for !stop.Load() {
			cnt, kept, err := leg.pull(src, stepEntries, j.filter, sc)
			if err != nil || cnt == 0 {
				return err
			}
			leg.rids = append(leg.rids, kept...)
			if limitCap > 0 && len(kept) > 0 &&
				fill.Add(int64(len(kept))) >= int64(limitCap) {
				stop.Store(true)
			}
		}
		return nil
	})
	if err != nil {
		return true, err
	}
	if limitCap > 0 && fill.Load() >= int64(limitCap) {
		j.trc.emit(TraceEvent{
			Kind: EvParallelEarlyCancel, Scan: j.name(), Indexes: []string{sq.ix.Name},
			ActualIO: j.m.cost(),
			Detail:   fmt.Sprintf("%d candidates >= LIMIT %d, sibling workers cancelled", fill.Load(), limitCap),
		})
	}
	for i := range legs {
		sq.seen += legs[i].seen
		if len(legs[i].rids) == 0 {
			continue
		}
		// No borrow stream to feed: the gate refuses a scan with one.
		if err := j.list.AppendBatch(legs[i].rids); err != nil {
			return true, err
		}
	}
	// Worker cursors are closed (worker 0's is the scan cursor, whose
	// pin the bounded stop left behind); completeScan adopts the list
	// exactly as it would after sequential exhaustion.
	return true, j.completeScan()
}
