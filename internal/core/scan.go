package core

import (
	"sync/atomic"

	"rdbdyn/internal/btree"
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// stepper is a resumable scan. The cooperative scheduler in the tactics
// advances foreground and background steppers in proportional slices,
// which is how the paper's "simultaneous runs with proportional speeds"
// are realized deterministically.
type stepper interface {
	// step advances by roughly one page worth of work.
	step() (done bool, err error)
	// cost returns the I/O invested in this scan so far.
	cost() float64
	// name identifies the scan for traces.
	name() string
	// release frees resources held across steps — open cursors and
	// their buffer-pool pins, spilled RID containers. It must be
	// idempotent and safe at any point of the scan's life; cancellation
	// unwinds through it.
	release()
}

// meter attributes buffer-pool I/O to one scan through a per-scan
// Tracker. The tracked storage accessors charge the tracker directly,
// so attribution stays exact even while concurrent queries drive the
// same pool (global-snapshot differencing would not).
//
// The tracker carries the query's governor (from the ExecCtx), which is
// how the execution context reaches the buffer pool's cancellation
// checkpoint through every scan of the query.
type meter struct {
	tr *storage.Tracker
}

func newMeter(ec *ExecCtx) meter { return meter{tr: storage.NewTracker(ec.Governor())} }

func (m *meter) cost() float64       { return float64(m.tr.IOCost()) }
func (m *meter) total() int64        { return m.tr.IOCost() }
func (m *meter) io() storage.IOStats { return m.tr.Stats() }

// entryCursor is the common face of forward and reverse index cursors.
type entryCursor interface {
	Next() (key []byte, rid storage.RID, ok bool, err error)
	// NextBatch drains up to a leaf's worth of entries per call with
	// identical tracker charges to per-entry Next; n == 0 means
	// exhaustion.
	NextBatch(dst []btree.Entry) (n int, err error)
	// Close releases the cursor's leaf pin; required when abandoning
	// the cursor before exhaustion.
	Close()
}

// newEntryCursor opens a cursor over [lo, hi) in the requested
// direction, charging its page accesses to tr.
func newEntryCursor(tree *btree.BTree, lo, hi []byte, desc bool, tr *storage.Tracker) (entryCursor, error) {
	if desc {
		return tree.SeekReverseTracked(lo, hi, tr)
	}
	return tree.SeekTracked(lo, hi, tr)
}

// queue is a FIFO that reuses its backing array: pop advances a head
// index, clears the slot it leaves and rewinds when the queue drains.
type queue[T any] struct {
	rows []T
	head int
}

func (q *queue[T]) push(v T)    { q.rows = append(q.rows, v) }
func (q *queue[T]) empty() bool { return q.head == len(q.rows) }
func (q *queue[T]) pop() T {
	var zero T
	v := q.rows[q.head]
	q.rows[q.head] = zero
	if q.head++; q.head == len(q.rows) {
		q.rows, q.head = q.rows[:0], 0
	}
	return v
}

// Next pops as a join's row source does: ok=false once drained.
func (q *queue[T]) Next() (v T, ok bool, _ error) {
	if q.empty() {
		return v, false, nil
	}
	return q.pop(), true, nil
}

// rowQueue is the delivery buffer between a producing scan and the
// Rows iterator. Ownership is per step, not per row: the kernel keeps a
// step's survivors as views in kept, and the scan owns them together
// when its step ends (own) — one slab however many rows survived. An
// unbounded partition worker is cut into steps of stepEntries rows.
type rowQueue struct {
	queue[expr.Row]
	kept expr.Batch
}

func (q *rowQueue) keep(view expr.Row, cols []int) {
	if q.kept.Keep(view, cols) >= stepEntries {
		q.own()
	}
}

func (q *rowQueue) own() { q.rows = q.kept.Own(q.rows) }

// ridQueue carries borrowed RIDs from the background's first index scan
// to the fast-first foreground.
type ridQueue struct {
	queue[storage.RID]
	closed bool // producer finished
}

// tscan is the classical sequential retrieval: one heap page per step.
// An optional exclusion list skips rows a terminated foreground already
// delivered (fast-first fallback).
type tscan struct {
	q       *Query
	k       *rowKernel
	scratch expr.Row // the stepping path's; a partition worker brings its own
	cur     *storage.HeapCursor
	out     *rowQueue
	m       meter
	exclude *rid.CompressedBitmap
	rpp     int      // rows per page, the per-step record budget
	workers int      // intra-query worker budget (see parallel.go)
	par     *morsels // the streamed scan, once partitioned
	done    bool
}

func newTscan(ec *ExecCtx, q *Query, k *rowKernel, out *rowQueue, workers int) *tscan {
	pages := q.Table.Pages()
	rpp := 1
	if pages > 0 {
		rpp = int(q.Table.Cardinality())/pages + 1
	}
	m := newMeter(ec)
	return &tscan{
		q:       q,
		k:       k,
		cur:     q.Table.Heap.CursorTracked(m.tr),
		out:     out,
		m:       m,
		rpp:     rpp,
		workers: workers,
	}
}

func (t *tscan) name() string  { return "Tscan" }
func (t *tscan) cost() float64 { return t.m.cost() }
func (t *tscan) release()      { t.cur.Close(); t.par.close() }

func (t *tscan) step() (bool, error) {
	if t.done {
		return true, nil
	}
	// Partitioned scan: only without a row limit (workers run ahead of
	// the consumer), started by the very first step; every step hands
	// over one morsel.
	if t.par == nil && t.workers > 1 && t.q.Limit == 0 {
		t.par = t.startParallelScan()
	}
	var err error
	if t.par != nil {
		t.done, err = t.par.step(t.out)
	} else {
		t.done, err = t.scanRows(t.cur, t.rpp, nil, &t.scratch, t.out)
	}
	return t.done, err
}

// stopped polls a morsel run's stop flag; the stepping paths pass nil.
func stopped(stop *atomic.Bool) bool { return stop != nil && stop.Load() }

// scanRows drives the row kernel over cur's records, skipping excluded
// RIDs. The stepping path runs it on the scan's own cursor with its
// per-step record budget; partition workers run it unbounded (budget 0)
// on a page-range cursor with their own scratch, polling stop. done
// reports that cur is exhausted.
func (t *tscan) scanRows(cur *storage.HeapCursor, budget int, stop *atomic.Bool, scratch *expr.Row, out *rowQueue) (done bool, _ error) {
	defer out.own()
	for i := 0; (budget == 0 || i < budget) && !stopped(stop); i++ {
		rec, rrid, ok, err := cur.Next()
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		if t.exclude != nil && t.exclude.MayContain(rrid) {
			continue
		}
		if _, err := t.k.deliver(rrid, rec, scratch, out); err != nil {
			return false, err
		}
	}
	return false, nil
}

// sscan is the self-sufficient index scan: the whole query is answered
// from index entries, never touching data records. It is a leg whose
// key kernel delivers: the entries arrive in batches through the same
// pull as a Jscan leg's.
type sscan struct {
	leg raceLeg // ix, the delivering key kernel, out
	cur entryCursor
	sc  *acceptScratch
	m   meter
	// delivered records RIDs of rows already handed out, so a winning
	// background final stage can skip them (index-only tactic) — only
	// while track reports that such a background is still live.
	delivered []storage.RID
	track     func() bool // nil = nobody can take them
	done      bool
}

func newSscan(ec *ExecCtx, q *Query, ix *catalog.Index, lo, hi []byte, out *rowQueue, desc bool) (*sscan, error) {
	m := newMeter(ec)
	cur, err := newEntryCursor(ix.Tree, lo, hi, desc, m.tr)
	if err != nil {
		return nil, err
	}
	return &sscan{leg: raceLeg{ix: ix, local: q.sscanKernel(ix), out: out}, cur: cur, m: m, sc: newAcceptScratch(firstBatch)}, nil
}

func (s *sscan) name() string  { return "Sscan(" + s.leg.ix.Name + ")" }
func (s *sscan) cost() float64 { return s.m.cost() }
func (s *sscan) release()      { s.cur.Close() }

func (s *sscan) step() (bool, error) {
	defer s.leg.out.own()
	for budget := stepEntries; budget > 0 && !s.done; {
		n, kept, err := s.leg.pull(s.cur, budget, rid.TrueFilter{}, s.sc)
		if err != nil {
			return s.done, err
		}
		budget -= n
		s.done = n == 0
		if s.track != nil && s.track() {
			s.delivered = append(s.delivered, kept...)
		}
	}
	return s.done, nil
}

// fscan is the classical indexed retrieval: scan a fetch-needed index
// and fetch each candidate data record immediately. An optional filter
// (produced by a cooperating Jscan in the sorted tactic) rejects RIDs
// before the fetch, "eliminating a large number of record fetches that
// usually comprise the biggest cost portion of retrieval".
type fscan struct {
	q       *Query
	k       *rowKernel
	scratch expr.Row // serves the key check and the fetched-row check in turn
	ix      *catalog.Index
	cur     entryCursor
	local   *rowKernel             // restriction conjuncts the key decides; may be nil
	filter  func(storage.RID) bool // pre-fetch RID filter; the sorted tactic installs it mid-scan
	out     *rowQueue
	m       meter
	done    bool
}

func newFscan(ec *ExecCtx, q *Query, k *rowKernel, ix *catalog.Index, lo, hi []byte, out *rowQueue, desc bool) (*fscan, error) {
	m := newMeter(ec)
	cur, err := newEntryCursor(ix.Tree, lo, hi, desc, m.tr)
	if err != nil {
		return nil, err
	}
	return &fscan{
		q:     q,
		k:     k,
		ix:    ix,
		cur:   cur,
		local: keyKernel(q.Restriction, q.Binds, ix),
		out:   out,
		m:     m,
	}, nil
}

func (f *fscan) name() string  { return "Fscan(" + f.ix.Name + ")" }
func (f *fscan) cost() float64 { return f.m.cost() }
func (f *fscan) release()      { f.cur.Close() }

func (f *fscan) step() (bool, error) {
	if f.done {
		return true, nil
	}
	defer f.out.own()
	fetches := 0
	for i := 0; i < stepEntries && fetches < 4; i++ {
		key, rid, ok, err := f.cur.Next()
		if err != nil {
			return f.done, err
		}
		if !ok {
			f.done = true
			return true, nil
		}
		if f.local != nil {
			if keep, err := f.local.entry(f.ix, key, &f.scratch); err != nil {
				return f.done, err
			} else if !keep {
				continue
			}
		}
		if f.filter != nil && !f.filter(rid) {
			continue
		}
		rec, err := f.q.Table.Heap.GetTracked(rid, f.m.tr)
		if err != nil {
			return f.done, err
		}
		fetches++
		if _, err := f.k.deliver(rid, rec, &f.scratch, f.out); err != nil {
			return f.done, err
		}
	}
	return f.done, nil
}

// borrowFetcher is the fast-first foreground: it consumes RIDs borrowed
// from the background Jscan's first index scan, fetches and delivers
// the records, and remembers what it delivered so the final stage can
// filter those out (Section 7, fast-first tactic).
type borrowFetcher struct {
	q       *Query
	k       *rowKernel
	scratch expr.Row
	in      *ridQueue
	out     *rowQueue
	m       meter
	// delivered RIDs, bounded by cap; overflow signals the tactic to
	// terminate the foreground.
	delivered []storage.RID
	capRIDs   int
	overflow  bool
	done      bool
}

func newBorrowFetcher(ec *ExecCtx, q *Query, k *rowKernel, in *ridQueue, out *rowQueue, capRIDs int) *borrowFetcher {
	// capRIDs == 0 means "the documented default", never "overflow
	// after the first delivered row"; a negative cap means unbounded.
	if capRIDs == 0 {
		capRIDs = DefaultConfig().FgBufferCap
	}
	return &borrowFetcher{q: q, k: k, in: in, out: out, m: newMeter(ec), capRIDs: capRIDs}
}

func (b *borrowFetcher) name() string  { return "Fgr(borrow)" }
func (b *borrowFetcher) cost() float64 { return b.m.cost() }
func (b *borrowFetcher) release()      {} // fetches page-at-a-time; nothing held

func (b *borrowFetcher) step() (bool, error) {
	if b.done {
		return true, nil
	}
	defer b.out.own()
	for fetches := 0; fetches < 4; fetches++ {
		if b.in.empty() {
			if b.in.closed {
				b.done = true
			}
			return b.done, nil
		}
		rid := b.in.pop()
		rec, err := b.q.Table.Heap.GetTracked(rid, b.m.tr)
		if err != nil {
			return b.done, err
		}
		keep, err := b.k.deliver(rid, rec, &b.scratch, b.out)
		if err != nil {
			return b.done, err
		}
		// Only delivered rows need bookkeeping: rows rejected here
		// will be rejected again by Fin's restriction re-check.
		if keep {
			b.delivered = append(b.delivered, rid)
			if b.capRIDs > 0 && len(b.delivered) >= b.capRIDs {
				b.overflow = true
				b.done = true
				return true, nil
			}
		}
	}
	return b.done, nil
}
