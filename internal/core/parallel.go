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
// Every partitioned site runs its scan shape's one kernel — the per-row
// code the step-sliced sequential path runs with its step budget, run
// unbounded on each worker — over ordered morsels: contiguous and handed
// over in index order, so the concatenation is the sequential output
// order. Tscan's page ranges and Fin's page-aligned RID chunks stream
// (workers outlive a step; each step hands over one morsel); Uscan's OR
// legs, Jscan's leaf-aligned key partitions and a join stage's round of
// upstream rows (join.go) take the barrier, fanOut. DESIGN.md
// ("Streaming operators and intra-query parallelism") has the contract
// and the kernel table; the eligibility gates are documented where they
// live (tscan.step, finalStage.step, maybeParallelLegs,
// partitionDisqualifier).

// A streamed morsel's cap, in heap pages (Tscan) and sorted RIDs (Fin):
// a hand-over then costs under 1 % of the morsel's work.
const (
	morselPages = 32
	morselRIDs  = 1024
)

// morselFunc scans units [lo, hi), one morsel, charging w.tr, polling
// stop at its batch boundaries and leaving the rows it keeps in w.out.
type morselFunc func(lo, hi int, stop *atomic.Bool, w *morselWorker) error

// morselWorker is one worker's own: its tracker and what it writes per
// record — the rows its morsel keeps, its kernel's cursor and decode
// scratch — recycled from morsel to morsel and padded, so that two
// workers never write the same cache line.
type morselWorker struct {
	out rowQueue
	c   fetchCursor
	tr  *storage.Tracker
	_   [64]byte
}

// morsels runs work over a schedule of morsels on workers that claim
// them in order, at most len(res) claimed and not yet handed over — the
// back-pressure that bounds a streamed scan's memory. A worker charges
// its own tracker on parent's governor (the budget is enforced live); a
// morsel's rows, charges and error reach the consumer and parent at its
// hand-over, in index order, so parent's cost between steps is a
// function of the morsels delivered, never of timing. A failing worker
// sets stop, which siblings poll (the buffer pool's governor checkpoint
// bounds that to about one page access), and a worker may set it itself
// to end the run early; nothing is handed over after that — a sibling
// may have been cut short. Workers never call release; close joins them.
type morsels struct {
	parent     *storage.Tracker
	work       morselFunc
	cuts       []int // morsel i is units [cuts[i], cuts[i+1])
	n, workers int
	stop       atomic.Bool
	wg         sync.WaitGroup
	mu         sync.Mutex
	cond       sync.Cond
	next, head int            // morsels claimed; morsels handed over
	res        []morselResult // the window: morsel i posts at i % len(res)
}

type morselResult struct {
	rows  []expr.Row
	io    storage.IOStats
	err   error
	ready bool
}

// startMorsels cuts total units into morsels and starts k workers on
// them. The schedule is a pure function of the arguments: the first k
// morsels are one sequential step's worth (unit), so the first row is
// one step away, and every further round of k doubles up to limit;
// a cut never falls between two units that are joined (nil = none are).
// With the morsel in the consumer's queue, the window of 2k-1 keeps at
// most 2k morsels in memory.
func startMorsels(parent *storage.Tracker, total, k, unit, limit int, joined func(a, b int) bool, work morselFunc) *morsels {
	m := &morsels{parent: parent, work: work, workers: k, res: make([]morselResult, 2*k-1)}
	m.cuts = make([]int, 1, total/limit+8*k)
	for at := 0; at < total; m.n++ {
		if m.n > 0 && m.n%k == 0 {
			unit = min(2*unit, limit)
		}
		at = min(at+unit, total)
		for at < total && joined != nil && joined(at-1, at) {
			at++
		}
		m.cuts = append(m.cuts, at)
	}
	m.cond.L = &m.mu
	m.wg.Add(k)
	for range k {
		go m.worker(&morselWorker{tr: storage.NewTracker(parent.Governor())})
	}
	return m
}

func (m *morsels) worker(w *morselWorker) {
	defer m.wg.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for m.next < m.n && m.next-m.head == len(m.res) && !m.stop.Load() {
			m.cond.Wait() // parked on the window
		}
		i := m.next
		if i == m.n || m.stop.Load() {
			return
		}
		m.next++
		r := &m.res[i%len(m.res)]
		m.mu.Unlock()
		err := m.work(m.cuts[i], m.cuts[i+1], &m.stop, w)
		if err != nil {
			m.stop.Store(true)
		}
		m.mu.Lock()
		r.rows, w.out.rows = w.out.rows, r.rows // the slot's emptied buffer comes back
		r.io, r.err, r.ready = w.tr.Stats(), err, true
		w.tr.Reset()
		m.cond.Broadcast()
	}
}

// step hands the consumer the next morsel in order: its rows go to out,
// its charges into parent. done reports every morsel delivered; a
// stopped run is closed and its error returned.
func (m *morsels) step(out *rowQueue) (done bool, _ error) {
	m.mu.Lock()
	r := &m.res[m.head%len(m.res)]
	for m.head < m.n && !r.ready && !m.stop.Load() {
		m.cond.Wait()
	}
	if m.head == m.n || m.stop.Load() {
		m.mu.Unlock()
		err := m.close()
		return err == nil, err
	}
	m.parent.MergeStats(r.io)
	out.rows = append(out.rows, r.rows...)
	clear(r.rows)
	r.rows, r.ready = r.rows[:0], false
	m.head++
	m.cond.Broadcast()
	m.mu.Unlock()
	return false, nil
}

// close stops the workers, wakes any parked on the window, joins them
// and merges every charge not yet handed over — in-flight morsels
// included, each exactly once — so attributed totals stay exact for a
// query unwound mid-scan. It returns the lowest-index worker's error.
// Idempotent; a scan that never partitioned has a nil run.
func (m *morsels) close() (first error) {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	m.stop.Store(true)
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	for ; m.head < m.next; m.head++ {
		r := &m.res[m.head%len(m.res)]
		m.parent.MergeStats(r.io)
		if first == nil {
			first = r.err
		}
	}
	return first
}

// String says how a streamed scan ran, for its scan-complete event.
func (m *morsels) String() string {
	return fmt.Sprintf(" (streamed: %d workers, %d morsels)", m.workers, m.n)
}

// fanOut is the barrier: work(i, tr, stop) for every i in [0, n) as n
// morsels [i, i+1) on n workers, all joined — charges merged, the
// lowest-index error winning — before it returns, so no goroutine
// outlives the step() that called it. n == 1 runs inline on parent:
// sequential is width 1 of the same code, and spawns nothing.
func fanOut(parent *storage.Tracker, n int, work func(i int, tr *storage.Tracker, stop *atomic.Bool) error) error {
	var stop atomic.Bool
	switch n {
	case 0:
		return nil
	case 1:
		return work(0, parent, &stop)
	}
	m := startMorsels(parent, n, n, 1, 1, nil, func(i, _ int, stop *atomic.Bool, w *morselWorker) error {
		return work(i, w.tr, stop)
	})
	m.wg.Wait()
	return m.close()
}

// startParallelScan streams the partitioned Tscan, one bounded range
// cursor per morsel: every heap page is read once by one worker — the
// sequential cursor's multiset of page accesses — and readahead stays
// inside the morsel.
func (t *tscan) startParallelScan() *morsels {
	heap := t.q.Table.Heap
	return startMorsels(t.m.tr, heap.NumPages(), t.workers, 1, morselPages, nil, func(lo, hi int, stop *atomic.Bool, w *morselWorker) error {
		cur := heap.RangeCursorTracked(storage.PageNo(lo), storage.PageNo(hi), w.tr)
		defer cur.Close()
		_, err := t.scanRows(cur, 0, stop, &w.c.scratch, &w.out)
		return err
	})
}

// startParallelFetch streams the partitioned final fetch: morsels of
// the sorted RID list cut on page boundaries (a same-page run is never
// split, so each data page is span-fetched by exactly one worker and
// the hit/miss profile matches the sequential clustered fetch), each
// prefetching inside itself.
func (f *finalStage) startParallelFetch() *morsels {
	rids := f.c.rids
	samePage := func(a, b int) bool { return rids[a].Page == rids[b].Page }
	return startMorsels(f.m.tr, len(rids), f.workers, finalFetchBudget, morselRIDs, samePage, func(lo, hi int, stop *atomic.Bool, w *morselWorker) error {
		if w.c.run == nil {
			w.c = newFetchCursor(nil)
		}
		w.c.rids, w.c.pos, w.c.pfPos = rids[lo:hi], 0, 0
		_, err := f.fetch(&w.c, w.tr, 0, stop, &w.out)
		return err
	})
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
