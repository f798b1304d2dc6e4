package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rdbdyn/internal/btree"
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// Partitioned intra-query execution (Config.Parallelism > 1).
//
// Three scan shapes fan out across workers, all with the same contract:
// the fan-out happens entirely inside one step() call (the coordinator
// waits on every worker before returning, so no goroutine ever outlives
// a step), every worker charges its own storage.Tracker sharing the
// query's Governor (live budget enforcement), the worker trackers merge
// into the stage's meter at the barrier (Tracker.Merge is associative,
// so attributed totals equal the sequential scan exactly), and worker
// results merge in partition order (partitions are contiguous, so the
// concatenation is the sequential output order).
//
// Eligibility is deliberately conservative. Tscan and the final fetch
// partition only when Limit is 0 (early termination is worth more than
// parallelism and an eager scan would overpay); the partitioned Jscan's
// gate is partitionDisqualifier, which documents and reports each
// disqualifier — continued scan, rows already seen, competition
// enabled, borrow queue attached, and Limit without an exact-count
// cap — individually. Under Config.AdaptiveParallelism a bare-LIMIT
// Jscan whose index covers the whole restriction partitions anyway,
// with a cross-worker exact-count cap and first-to-fill early
// cancellation of sibling workers (partitionLimitCap).
//
// Worker errors resolve deterministically to the lowest partition
// index; a failing worker flips a shared stop flag so siblings unwind
// at their next batch boundary (the buffer pool's governor checkpoint
// bounds this to about one page access), and partial worker charges are
// still merged so cancelled queries report exact attributed I/O.

// execProbeParallel is the partitioned join probe stage (inl/ridx over
// partitioned outer batches), enabled only under adaptive mode — the
// static knob never touched joins, and keeps not touching them. Outer
// rows are processed in rounds of width·joinReoptCheckEvery: within a
// round each worker probes a contiguous chunk on its own tracker,
// trackers barrier-merge into the stage meter in chunk order, and
// worker outputs concatenate in chunk order (matching the sequential
// probe order exactly). The sequential mid-stage fallback checkpoint
// runs between rounds over the merged global cost — the same
// extrapolation at a coarser cadence — so mid-flight re-optimization
// stays intact. Returns handled=false to fall through to the
// sequential probe loop.
func (je *joinExec) execProbeParallel(sg *JoinStagePlan, preds []stagePred, probe int, ix *catalog.Index, outer []expr.Row, filter *rid.CompressedBitmap, m *meter) (handled bool, _ []expr.Row, fellBack bool, _ error) {
	if !je.o.cfg.AdaptiveParallelism || je.o.cfg.effectiveWorkers() < 2 || len(outer) < 2 {
		return false, nil, false, nil
	}
	t := sg.Table
	tab := je.jq.Tables[t]
	// Appraised probe work: one descent plus roughly one fetch per
	// outer row.
	estIO := float64(len(outer)) * (float64(ix.Tree.Height()) + 1)
	width := decideWidth(je.o.cfg, je.ec, je.trc, "JoinProbe", estIO)
	if width < 2 {
		return false, nil, false, nil
	}
	local := je.jq.Local[t]
	off := je.offs[t]
	gov := m.tr.Governor()
	round := width * joinReoptCheckEvery
	var out []expr.Row
	for start := 0; start < len(outer); start += round {
		// Between-round checkpoint: same formula as the sequential
		// per-probe one, over the merged cost so far.
		if je.dynamic && start >= joinReoptMinProbes {
			avg := m.cost() / float64(start)
			remaining := float64(len(outer) - start)
			if avg*remaining > JoinReoptFactor*je.jts[t].Pages {
				return true, nil, true, nil
			}
		}
		end := start + round
		if end > len(outer) {
			end = len(outer)
		}
		chunk := outer[start:end]
		k := width
		if k > len(chunk) {
			k = len(chunk)
		}
		outs := make([][]expr.Row, k)
		errs := make([]error, k)
		trs := make([]*storage.Tracker, k)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			trs[i] = storage.NewTracker(gov)
			wg.Add(1)
			go func(i int, rows []expr.Row, tr *storage.Tracker) {
				defer wg.Done()
				var o []expr.Row
				var err error
				for _, orow := range rows {
					if stop.Load() {
						break
					}
					o, err = je.probeOne(o, orow, preds, probe, tab, ix, local, off, filter, tr)
					if err != nil {
						stop.Store(true)
						break
					}
				}
				outs[i], errs[i] = o, err
			}(i, chunk[i*len(chunk)/k:(i+1)*len(chunk)/k], trs[i])
		}
		wg.Wait()
		for _, tr := range trs {
			m.tr.Merge(tr)
		}
		if err := parallelWorkerErr(errs); err != nil {
			return true, nil, false, err
		}
		for i := range outs {
			out = append(out, outs[i]...)
		}
	}
	return true, out, false, nil
}

// parallelWorkerErr picks the terminal error: the lowest-index worker's.
func parallelWorkerErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runParallelScan is the eager partitioned Tscan: the heap's page range
// splits into contiguous chunks, one bounded range cursor per worker.
// Every heap page is read exactly once by exactly one worker — the same
// multiset of page accesses as the sequential cursor — and each
// worker's readahead window stays inside its own partition. Returns
// false when the heap is too small to split.
func (t *tscan) runParallelScan() (bool, error) {
	npages := t.q.Table.Heap.NumPages()
	k := t.workers
	if k > npages {
		k = npages
	}
	if k < 2 {
		return false, nil
	}
	heap := t.q.Table.Heap
	rows := make([][]expr.Row, k)
	errs := make([]error, k)
	trs := make([]*storage.Tracker, k)
	gov := t.m.tr.Governor()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		start := storage.PageNo(i * npages / k)
		end := storage.PageNo((i + 1) * npages / k)
		tr := storage.NewTracker(gov)
		trs[i] = tr
		wg.Add(1)
		go func(i int, start, end storage.PageNo, tr *storage.Tracker) {
			defer wg.Done()
			cur := heap.RangeCursorTracked(start, end, tr)
			defer cur.Close()
			for !stop.Load() {
				rec, rrid, ok, err := cur.Next()
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				if !ok {
					return
				}
				if t.exclude != nil && t.exclude.MayContain(rrid) {
					continue
				}
				row, err := expr.DecodeRow(rec)
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				keep, err := expr.EvalPred(t.q.Restriction, row, t.q.Binds)
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				if keep {
					rows[i] = append(rows[i], t.q.project(row))
				}
			}
		}(i, start, end, tr)
	}
	wg.Wait()
	// Merge charges before surfacing any error: attribution stays exact
	// even for a query unwound mid-scan.
	for _, tr := range trs {
		t.m.tr.Merge(tr)
	}
	if err := parallelWorkerErr(errs); err != nil {
		return false, err
	}
	for i := range rows {
		for _, r := range rows[i] {
			t.out.push(r)
		}
	}
	t.done = true
	return true, nil
}

// runParallelFetch is the eager partitioned final fetch: the sorted RID
// list splits into contiguous chunks aligned to page boundaries (a
// same-page run is never split across workers, so each data page is
// span-fetched by exactly one worker and the hit/miss profile matches
// the sequential clustered fetch). Returns false when the list does not
// split.
func (f *finalStage) runParallelFetch() (bool, error) {
	k := f.workers
	if k > len(f.rids)/(2*finalFetchBudget) {
		k = len(f.rids) / (2 * finalFetchBudget)
	}
	if k < 2 {
		return false, nil
	}
	// Chunk boundaries: the nominal even split, advanced to the next
	// page transition.
	starts := make([]int, 0, k+1)
	starts = append(starts, 0)
	for i := 1; i < k; i++ {
		b := i * len(f.rids) / k
		if b <= starts[len(starts)-1] {
			continue
		}
		for b < len(f.rids) && f.rids[b].Page == f.rids[b-1].Page {
			b++
		}
		if b >= len(f.rids) || b <= starts[len(starts)-1] {
			continue
		}
		starts = append(starts, b)
	}
	if len(starts) < 2 {
		return false, nil
	}
	starts = append(starts, len(f.rids))
	n := len(starts) - 1
	rows := make([][]expr.Row, n)
	errs := make([]error, n)
	trs := make([]*storage.Tracker, n)
	gov := f.m.tr.Governor()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tr := storage.NewTracker(gov)
		trs[i] = tr
		wg.Add(1)
		go func(i int, chunk []storage.RID, tr *storage.Tracker) {
			defer wg.Done()
			rows[i], errs[i] = f.fetchChunk(chunk, tr, &stop)
		}(i, f.rids[starts[i]:starts[i+1]], tr)
	}
	wg.Wait()
	for _, tr := range trs {
		f.m.tr.Merge(tr)
	}
	if err := parallelWorkerErr(errs); err != nil {
		return false, err
	}
	for i := range rows {
		for _, r := range rows[i] {
			f.out.push(r)
		}
	}
	f.done = true
	return true, nil
}

// fetchChunk runs one worker's share of the final fetch: same-page runs
// of non-excluded RIDs, each span-fetched once, with a private prefetch
// window staged ahead inside the chunk. Kept rows are returned in RID
// order; they are copies (or projections), never aliases of the decode
// scratch.
func (f *finalStage) fetchChunk(chunk []storage.RID, tr *storage.Tracker, stop *atomic.Bool) ([]expr.Row, error) {
	var out []expr.Row
	var scratch expr.Row
	pfbuf := make([]storage.PageID, 0, finalPrefetchWindow)
	pfPos := 0
	run := make([]storage.RID, 0, 16)
	pos := 0
	for pos < len(chunk) {
		if stop.Load() {
			return out, nil
		}
		// Stage upcoming pages of this chunk (accounting-free).
		if pfPos < pos {
			pfPos = pos
		}
		if pfPos < len(chunk) {
			buf := pfbuf[:0]
			var last storage.PageID
			for pfPos < len(chunk) && len(buf) < finalPrefetchWindow {
				pg := chunk[pfPos].Page
				if len(buf) == 0 || pg != last {
					buf = append(buf, pg)
					last = pg
				}
				pfPos++
			}
			f.q.Table.Pool().Prefetch(buf)
		}
		// Collect the next same-page run of non-excluded RIDs.
		run = run[:0]
		var page storage.PageID
		for pos < len(chunk) {
			r := chunk[pos]
			if f.exclude != nil && f.exclude.MayContain(r) {
				pos++
				continue
			}
			if len(run) > 0 && r.Page != page {
				break
			}
			page = r.Page
			run = append(run, r)
			pos++
		}
		if len(run) == 0 {
			break
		}
		p, err := f.q.Table.Heap.GetSpanTracked(page, len(run), tr)
		if err != nil {
			stop.Store(true)
			return out, err
		}
		for _, r := range run {
			rec, err := p.Get(r.Slot)
			if err != nil {
				stop.Store(true)
				return out, err
			}
			row, err := expr.DecodeRowInto(rec, scratch)
			if err != nil {
				stop.Store(true)
				return out, err
			}
			scratch = row
			keep, err := expr.EvalPred(f.q.Restriction, row, f.q.Binds)
			if err != nil {
				stop.Store(true)
				return out, err
			}
			if keep {
				if f.q.Projection == nil {
					row = append(expr.Row(nil), row...)
				}
				out = append(out, f.q.project(row))
			}
		}
	}
	return out, nil
}

// maybeParallelLegs fans the union scan out across its OR legs: each
// leg is an independent index range on its own index, so legs are the
// natural partitions. Every leg runs on its own goroutine with its own
// tracker (merged at the barrier in leg order), bounded by a
// width-sized semaphore; RIDs append to the union list in leg order, so
// the list content and order equal the sequential leg-by-leg scan
// exactly. Leg scan-started events are emitted at the barrier, also in
// leg order (events feed no counters, so Metrics stay identical).
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
	workers := decideWidth(u.cfg, u.ec, u.trc, "Uscan", estIO)
	if workers < 2 {
		return false, nil
	}
	if workers > len(u.legs) {
		workers = len(u.legs)
	}
	n := len(u.legs)
	rids := make([][]storage.RID, n)
	seen := make([]int, n)
	errs := make([]error, n)
	trs := make([]*storage.Tracker, n)
	gov := u.m.tr.Governor()
	sem := make(chan struct{}, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := range u.legs {
		trs[i] = storage.NewTracker(gov)
		wg.Add(1)
		go func(i int, leg unionLeg, tr *storage.Tracker) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if stop.Load() {
				return
			}
			rids[i], seen[i], errs[i] = u.scanLeg(leg, tr, &stop)
		}(i, u.legs[i], trs[i])
	}
	wg.Wait()
	// Merge charges before surfacing any error, in leg order.
	for _, tr := range trs {
		u.m.tr.Merge(tr)
	}
	if err := parallelWorkerErr(errs); err != nil {
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

// scanLeg runs one union leg to completion on a worker goroutine:
// seek (one charged descent on the leg's own tracker), then leaf-sized
// batches filtered through the leg's local disjunct. Aborts at the next
// batch boundary when a sibling flips the stop flag.
func (u *uscan) scanLeg(leg unionLeg, tr *storage.Tracker, stop *atomic.Bool) ([]storage.RID, int, error) {
	cur, err := leg.Index.Tree.SeekTracked(leg.Lo, leg.Hi, tr)
	if err != nil {
		stop.Store(true)
		return nil, 0, err
	}
	defer cur.Close()
	batch := make([]btree.Entry, stepEntries)
	var out []storage.RID
	seen := 0
	for !stop.Load() {
		n, err := cur.NextBatch(batch)
		if err != nil {
			stop.Store(true)
			return out, seen, err
		}
		if n == 0 {
			return out, seen, nil
		}
		seen += n
		for _, e := range batch[:n] {
			if leg.Local != nil {
				row, err := leg.Index.DecodeEntry(e.Key)
				if err != nil {
					stop.Store(true)
					return out, seen, err
				}
				keep, err := expr.EvalPred(leg.Local, row, u.q.Binds)
				if err != nil {
					stop.Store(true)
					return out, seen, err
				}
				if !keep {
					continue
				}
			}
			out = append(out, e.RID)
		}
	}
	return out, seen, nil
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
	if !j.curIx.Covers(expr.Columns(j.q.Restriction)) {
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
	case j.seen != 0:
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
	cur, ok := j.cur.(*btree.Cursor)
	if !ok {
		return false, nil
	}
	limitCap := j.partitionLimitCap()
	// The adaptive policy sees the work the scan will actually do: the
	// full range, or only the leaves needed to fill the cap.
	est := j.rangeEst
	if limitCap > 0 && float64(limitCap) < est {
		est = float64(limitCap)
	}
	estIO := j.model.LeafPages(est, j.curIx.Tree.AvgLeafEntries()) + float64(j.curIx.Tree.Height())
	workers := decideWidth(j.cfg, j.ec, j.trc, "Jscan", estIO)
	if workers < 2 {
		return false, nil
	}
	parts, err := j.curIx.Tree.PartitionRange(j.curLo, j.curHi, workers)
	if err != nil || len(parts) < 2 {
		// Planning trouble or a range too small to split: scan
		// sequentially. Planning is accounting-free, so falling back
		// costs nothing.
		return false, nil
	}
	tree := j.curIx.Tree
	n := len(parts)
	rids := make([][]storage.RID, n)
	seen := make([]int, n)
	errs := make([]error, n)
	trs := make([]*storage.Tracker, n)
	gov := j.m.tr.Governor()
	var stop atomic.Bool
	// fill counts collected RIDs across all workers when an exact-count
	// cap applies; the worker whose batch reaches the cap flips the stop
	// flag, so siblings overshoot by at most one batch (about one leaf
	// access) before unwinding at their next NextBatch check.
	var fill atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tr := storage.NewTracker(gov)
		trs[i] = tr
		wg.Add(1)
		go func(i int, part btree.RangePartition, tr *storage.Tracker) {
			defer wg.Done()
			var src Operator
			if i == 0 {
				src = cur // descent already charged to the shared meter
			} else {
				c, err := tree.SeekPartitionLeaf(part.Leaf, j.curHi, tr)
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				src = c
			}
			defer src.Close()
			if i < n-1 {
				// Interior partitions own whole leaves; the exact count
				// stops them at their boundary without touching the next
				// worker's first leaf. The last partition terminates on
				// the range bound like a sequential scan.
				src = &boundedOp{src: src, remaining: part.Count}
			}
			batch := make([]btree.Entry, stepEntries)
			sc := newAcceptScratch(stepEntries)
			for !stop.Load() {
				cnt, err := src.NextBatch(batch)
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				if cnt == 0 {
					return
				}
				seen[i] += cnt
				kept, err := acceptEntries(batch[:cnt], j.curIx, j.local, j.q.Binds, j.filter, sc)
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				rids[i] = append(rids[i], kept...)
				if limitCap > 0 && len(kept) > 0 &&
					fill.Add(int64(len(kept))) >= int64(limitCap) {
					stop.Store(true)
					return
				}
			}
		}(i, parts[i], tr)
	}
	wg.Wait()
	for _, tr := range trs {
		j.m.tr.Merge(tr)
	}
	if err := parallelWorkerErr(errs); err != nil {
		return true, err
	}
	if limitCap > 0 && fill.Load() >= int64(limitCap) {
		j.trc.emit(TraceEvent{
			Kind: EvParallelEarlyCancel, Scan: j.name(), Indexes: []string{j.curIx.Name},
			ActualIO: j.m.cost(),
			Detail:   fmt.Sprintf("%d candidates >= LIMIT %d, sibling workers cancelled", fill.Load(), limitCap),
		})
	}
	for i := range parts {
		j.seen += seen[i]
		if len(rids[i]) == 0 {
			continue
		}
		if err := j.list.AppendBatch(rids[i]); err != nil {
			return true, err
		}
		if j.borrowActive {
			for _, r := range rids[i] {
				j.borrow.push(r)
			}
		}
	}
	// Worker cursors are closed (worker 0's is the scan cursor, whose
	// pin the bounded stop left behind); completeScan adopts the list
	// exactly as it would after sequential exhaustion.
	return true, j.completeScan()
}
