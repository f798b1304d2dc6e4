package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// Partitioned intra-query execution (Config.Parallelism > 1).
//
// Two scans partition, Tscan over heap page ranges and Fin over
// page-aligned chunks of its sorted RID list, and both run their one
// kernel — the per-row code the step-sliced sequential path runs with
// its step budget, run unbounded on each worker — over ordered morsels:
// contiguous, handed over in index order one per step, so the
// concatenation is the sequential output order. Workers outlive a step
// but never the scan's release. The only other goroutines are a Jscan
// race's two legs (racepar.go). DESIGN.md ("Streaming operators and
// intra-query parallelism") has the contract and the kernel table; the
// eligibility gates live in tscan.step and finalStage.step.

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
// bounds that to about one page access); nothing is handed over after
// that — a sibling may have been cut short. Workers never call release;
// close joins them.
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
