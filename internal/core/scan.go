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

// rowQueue is the delivery buffer between a producing scan and the
// Rows iterator.
type rowQueue struct {
	rows []expr.Row
}

func (q *rowQueue) push(r expr.Row) { q.rows = append(q.rows, r) }
func (q *rowQueue) empty() bool     { return len(q.rows) == 0 }
func (q *rowQueue) pop() expr.Row {
	r := q.rows[0]
	q.rows = q.rows[1:]
	return r
}

// ridQueue carries borrowed RIDs from the background's first index scan
// to the fast-first foreground.
type ridQueue struct {
	rids   []storage.RID
	closed bool // producer finished
}

func (q *ridQueue) push(r storage.RID) { q.rids = append(q.rids, r) }
func (q *ridQueue) empty() bool        { return len(q.rids) == 0 }
func (q *ridQueue) pop() storage.RID {
	r := q.rids[0]
	q.rids = q.rids[1:]
	return r
}

// tscan is the classical sequential retrieval: one heap page per step.
// An optional exclusion list skips rows a terminated foreground already
// delivered (fast-first fallback).
type tscan struct {
	q       *Query
	cur     *storage.HeapCursor
	out     *rowQueue
	m       meter
	exclude *rid.CompressedBitmap
	rpp     int // rows per page, the per-step record budget
	workers int // intra-query worker budget (see parallel.go)
	parDone bool
	done    bool
}

func newTscan(ec *ExecCtx, q *Query, out *rowQueue, workers int) *tscan {
	pages := q.Table.Pages()
	rpp := 1
	if pages > 0 {
		rpp = int(q.Table.Cardinality())/pages + 1
	}
	m := newMeter(ec)
	return &tscan{
		q:       q,
		cur:     q.Table.Heap.CursorTracked(m.tr),
		out:     out,
		m:       m,
		rpp:     rpp,
		workers: workers,
	}
}

func (t *tscan) name() string  { return "Tscan" }
func (t *tscan) cost() float64 { return t.m.cost() }
func (t *tscan) release()      { t.cur.Close() }

func (t *tscan) step() (bool, error) {
	if t.done {
		return true, nil
	}
	// Eager partitioned scan: only without a row limit (an eager scan
	// cannot stop early) and only as the very first step (a scan that
	// already made sequential progress keeps its cursor position).
	if t.workers > 1 && t.q.Limit == 0 && !t.parDone {
		t.parDone = true
		if handled, err := t.runParallelScan(); handled || err != nil {
			return t.done, err
		}
	}
	done, err := t.scanRows(t.cur, t.rpp, nil, t.out)
	t.done = done
	return t.done, err
}

// stopped polls a fan-out's stop flag; the stepping paths pass nil.
func stopped(stop *atomic.Bool) bool { return stop != nil && stop.Load() }

// scanRows is the heap-row kernel: records from cur pass exclude →
// decode → restriction → project into out. The stepping path runs it on
// the scan's own cursor with its per-step record budget; partition
// workers run it unbounded (budget 0) on a page-range cursor, polling
// stop. done reports that cur is exhausted.
func (t *tscan) scanRows(cur *storage.HeapCursor, budget int, stop *atomic.Bool, out *rowQueue) (done bool, _ error) {
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
		row, err := expr.DecodeRow(rec)
		if err != nil {
			return false, err
		}
		keep, err := expr.EvalPred(t.q.Restriction, row, t.q.Binds)
		if err != nil {
			return false, err
		}
		if keep {
			out.push(t.q.project(row))
		}
	}
	return false, nil
}

// pagesRemaining projects the scan's remaining cost.
func (t *tscan) pagesRemaining() int { return t.cur.PagesRemaining() }

// sscan is the self-sufficient index scan: the whole query is answered
// from index entries, never touching data records.
type sscan struct {
	q   *Query
	ix  *catalog.Index
	cur entryCursor
	out *rowQueue
	m   meter
	// delivered records RIDs of rows already handed out, so a winning
	// background final stage can skip them (index-only tactic).
	delivered []storage.RID
	done      bool
}

func newSscan(ec *ExecCtx, q *Query, ix *catalog.Index, lo, hi []byte, out *rowQueue, desc bool) (*sscan, error) {
	m := newMeter(ec)
	cur, err := newEntryCursor(ix.Tree, lo, hi, desc, m.tr)
	if err != nil {
		return nil, err
	}
	return &sscan{
		q:   q,
		ix:  ix,
		cur: cur,
		out: out,
		m:   m,
	}, nil
}

func (s *sscan) name() string  { return "Sscan(" + s.ix.Name + ")" }
func (s *sscan) cost() float64 { return s.m.cost() }
func (s *sscan) release()      { s.cur.Close() }

func (s *sscan) step() (bool, error) {
	if s.done {
		return true, nil
	}
	for i := 0; i < stepEntries; i++ {
		key, rid, ok, err := s.cur.Next()
		if err != nil {
			return s.done, err
		}
		if !ok {
			s.done = true
			return true, nil
		}
		row, err := s.ix.DecodeEntry(key)
		if err != nil {
			return s.done, err
		}
		keep, err := expr.EvalPred(s.q.Restriction, row, s.q.Binds)
		if err != nil {
			return s.done, err
		}
		if keep {
			s.out.push(s.q.project(row))
			s.delivered = append(s.delivered, rid)
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
	ix      *catalog.Index
	cur     entryCursor
	local   expr.Expr              // restriction conjuncts evaluable on key columns
	filter  func(storage.RID) bool // nil = no pre-fetch filter
	out     *rowQueue
	m       meter
	scanned int // entries consumed
	fetched int // records fetched
	done    bool
}

// localRestriction extracts the conjuncts of e whose columns all lie in
// the index key, so they can be checked on the entry before fetching.
func localRestriction(e expr.Expr, ix *catalog.Index) expr.Expr {
	var local []expr.Expr
	for _, cj := range expr.Conjuncts(e) {
		if ix.Covers(expr.Columns(cj)) {
			local = append(local, cj)
		}
	}
	if len(local) == 0 {
		return nil
	}
	return expr.NewAnd(local...)
}

func newFscan(ec *ExecCtx, q *Query, ix *catalog.Index, lo, hi []byte, out *rowQueue, desc bool) (*fscan, error) {
	m := newMeter(ec)
	cur, err := newEntryCursor(ix.Tree, lo, hi, desc, m.tr)
	if err != nil {
		return nil, err
	}
	return &fscan{
		q:     q,
		ix:    ix,
		cur:   cur,
		local: localRestriction(q.Restriction, ix),
		out:   out,
		m:     m,
	}, nil
}

func (f *fscan) name() string  { return "Fscan(" + f.ix.Name + ")" }
func (f *fscan) cost() float64 { return f.m.cost() }
func (f *fscan) release()      { f.cur.Close() }

// setFilter installs a pre-fetch RID filter (sorted tactic: the Jscan
// filter arrives while the Fscan is already running).
func (f *fscan) setFilter(fn func(storage.RID) bool) { f.filter = fn }

func (f *fscan) step() (bool, error) {
	if f.done {
		return true, nil
	}
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
		f.scanned++
		if f.local != nil {
			row, err := f.ix.DecodeEntry(key)
			if err != nil {
				return f.done, err
			}
			keep, err := expr.EvalPred(f.local, row, f.q.Binds)
			if err != nil {
				return f.done, err
			}
			if !keep {
				continue
			}
		}
		if f.filter != nil && !f.filter(rid) {
			continue
		}
		row, err := f.q.Table.FetchTracked(rid, f.m.tr)
		if err != nil {
			return f.done, err
		}
		fetches++
		f.fetched++
		keep, err := expr.EvalPred(f.q.Restriction, row, f.q.Binds)
		if err != nil {
			return f.done, err
		}
		if keep {
			f.out.push(f.q.project(row))
		}
	}
	return f.done, nil
}

// borrowFetcher is the fast-first foreground: it consumes RIDs borrowed
// from the background Jscan's first index scan, fetches and delivers
// the records, and remembers what it delivered so the final stage can
// filter those out (Section 7, fast-first tactic).
type borrowFetcher struct {
	q   *Query
	in  *ridQueue
	out *rowQueue
	m   meter
	// delivered RIDs, bounded by cap; overflow signals the tactic to
	// terminate the foreground.
	delivered []storage.RID
	capRIDs   int
	overflow  bool
	done      bool
}

func newBorrowFetcher(ec *ExecCtx, q *Query, in *ridQueue, out *rowQueue, capRIDs int) *borrowFetcher {
	// capRIDs == 0 means "the documented default", never "overflow
	// after the first delivered row"; a negative cap means unbounded.
	if capRIDs == 0 {
		capRIDs = DefaultConfig().FgBufferCap
	}
	return &borrowFetcher{
		q:       q,
		in:      in,
		out:     out,
		m:       newMeter(ec),
		capRIDs: capRIDs,
	}
}

func (b *borrowFetcher) name() string  { return "Fgr(borrow)" }
func (b *borrowFetcher) cost() float64 { return b.m.cost() }
func (b *borrowFetcher) release()      {} // fetches page-at-a-time; nothing held

func (b *borrowFetcher) step() (bool, error) {
	if b.done {
		return true, nil
	}
	for fetches := 0; fetches < 4; fetches++ {
		if b.in.empty() {
			if b.in.closed {
				b.done = true
			}
			return b.done, nil
		}
		rid := b.in.pop()
		row, err := b.q.Table.FetchTracked(rid, b.m.tr)
		if err != nil {
			return b.done, err
		}
		keep, err := expr.EvalPred(b.q.Restriction, row, b.q.Binds)
		if err != nil {
			return b.done, err
		}
		// Only delivered rows need bookkeeping: rows rejected here
		// will be rejected again by Fin's restriction re-check.
		if keep {
			b.out.push(b.q.project(row))
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
