package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// morselFixture is a heap of >= 256 pages and the two streamed shapes
// over it at width 2: a partitioned Tscan every row qualifies for
// (dynamic, no useful index) and a partitioned Fin over the RIDs of the
// first three quarters of the heap (a pinned background-only plan over
// the clustered IX_ID: more rows and the Jscan would recommend a Tscan).
type morselFixture struct {
	*fixture
	tscanQ, finQ *Query
}

const morselWidth = 2

var finPlan = &Plan{Tactic: "background-only", Indexes: []string{"IX_ID"}}

func newMorselFixture(t *testing.T) *morselFixture {
	t.Helper()
	f := newFixture(t, 40000, "ID")
	if p := f.tab.Pages(); p < 256 {
		t.Fatalf("fixture heap has %d pages, want >= 256", p)
	}
	id, salary := f.col(t, "ID"), f.col(t, "SALARY")
	return &morselFixture{
		fixture: f,
		tscanQ:  &Query{Table: f.tab, Restriction: expr.NewCmp(expr.GE, expr.Col(salary, "SALARY"), expr.Lit(expr.Float(0)))},
		finQ:    &Query{Table: f.tab, Restriction: expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(30000)))},
	}
}

// start runs shape ("tscan" or "fin") cold at width 2 and returns the
// rows with the retrieval under them.
func (f *morselFixture) start(t *testing.T, shape string, ec *ExecCtx) (Rows, *retrieval) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = morselWidth
	o := NewOptimizer(cfg)
	f.pool.EvictAll()
	var rows Rows
	if shape == "tscan" {
		rows = o.RunExec(ec, f.tscanQ)
	} else {
		rows = o.RunPlan(ec, f.finQ, finPlan)
	}
	r, ok := rows.(*retrieval)
	if !ok {
		t.Fatalf("%s ran as %T, want a retrieval", shape, rows)
	}
	return rows, r
}

// run returns the shape's streamed run once its first row is out, and
// the heap pages of its first n morsels.
func (f *morselFixture) run(t *testing.T, shape string, r *retrieval) (m *morsels, pagesOf func(n int) int64) {
	t.Helper()
	if shape == "tscan" {
		m = r.fg.(*tscan).par
		return m, func(n int) int64 { return int64(m.cuts[min(n, m.n)]) }
	}
	if r.fin == nil || r.fin.par == nil {
		t.Fatalf("no streamed final stage; trace: %v", r.Stats().Trace())
	}
	m = r.fin.par
	return m, func(n int) int64 {
		pages := map[storage.PageID]bool{}
		for _, rid := range r.fin.c.rids[:m.cuts[min(n, m.n)]] {
			pages[rid.Page] = true
		}
		return int64(len(pages))
	}
}

// quiesce polls a counter the workers move (pool reads, governor
// checkpoints) until it stands still — every worker is parked on the
// window, or gone — and returns it. Looking away too early only makes a
// test weaker: no assertion depends on the workers having got this far.
func quiesce(counter func() int64) int64 {
	last, still := counter(), 0
	for still < 3 {
		time.Sleep(500 * time.Microsecond)
		if now := counter(); now == last {
			still++
		} else {
			last, still = now, 0
		}
	}
	return last
}

func poolReads(pool *storage.BufferPool) func() int64 {
	return func() int64 { return pool.Stats().Reads }
}

// TestMorselFirstRowAndBackPressure states the streamed scan's two
// properties as counts: when the first Next returns, the scan has merged
// exactly the first morsel's pages and the pool has read no more than
// the window allows — 2 x width morsels, far below the table — and a
// consumer that stops pulling sees the reads stop there. Close then
// joins everything: no pins, no goroutines, every charge attributed.
func TestMorselFirstRowAndBackPressure(t *testing.T) {
	f := newMorselFixture(t)
	for _, shape := range []string{"tscan", "fin"} {
		t.Run(shape, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			// Fin's heap reads are counted from the moment the final
			// stage is entered: the Jscan before it read the index.
			var base int64
			ec := NewExecCtx(context.Background(), 1<<40).WithTrace(&eventTrigger{kind: EvFinalStage, fire: func() { base = f.pool.Stats().Reads }})
			rows, r := f.start(t, shape, ec)
			before := f.pool.Stats()
			if _, ok, err := rows.Next(); !ok || err != nil {
				t.Fatalf("first Next: ok=%v err=%v", ok, err)
			}
			if shape == "tscan" {
				base = before.Reads
			}
			m, pagesOf := f.run(t, shape, r)
			scan := stepper(r.fin)
			if shape == "tscan" {
				scan = r.fg
			}
			if got, want := int64(scan.cost()), pagesOf(1); got != want {
				t.Fatalf("merged cost at the first row = %d pages, want the first morsel's %d", got, want)
			}
			window := pagesOf(2 * morselWidth)
			if table := int64(f.tab.Pages()); window*8 > table {
				t.Fatalf("degenerate fixture: window of %d pages against a %d-page table", window, table)
			}
			if got := f.pool.Stats().Reads - base; got > window {
				t.Fatalf("pool read %d heap pages by the first row, window allows %d", got, window)
			}
			if got := quiesce(poolReads(f.pool)) - base; got > window {
				t.Fatalf("pool read %d heap pages with the consumer stopped, window allows %d", got, window)
			}
			if m.next-m.head > len(m.res) || m.head != 1 {
				t.Fatalf("claimed %d, handed over %d, window %d", m.next, m.head, len(m.res))
			}
			rows.Close()
			rows.Close()
			if p := f.pool.PinnedPages(); p != 0 {
				t.Fatalf("%d pins after Close", p)
			}
			waitGoroutines(t, baseline)
			st := rows.Stats()
			if spent := ec.IOSpent(); st.IO.IOCost()+st.EstimateIO != spent {
				t.Fatalf("attributed %d + estimate %d, the query's workers charged %d", st.IO.IOCost(), st.EstimateIO, spent)
			}
			if got := f.pool.Stats().Sub(before); shape == "tscan" && got != st.IO {
				t.Fatalf("attributed %+v, pool delta %+v", st.IO, got)
			}
		})
	}
}

// TestMorselScheduleDeterministic: the morsel boundaries of a fixed
// (pages, width) and (RID list, width) are a pure function of them —
// identical across 20 runs — and have the scheduled shape: contiguous,
// the first width morsels one step's worth, each later round at most
// double the one before, none over the cap (a Fin cut only moves forward
// to its page's end).
func TestMorselScheduleDeterministic(t *testing.T) {
	f := newMorselFixture(t)
	for _, shape := range []string{"tscan", "fin"} {
		t.Run(shape, func(t *testing.T) {
			var first []int
			for i := 0; i < 20; i++ {
				rows, r := f.start(t, shape, nil)
				if _, ok, err := rows.Next(); !ok || err != nil {
					t.Fatalf("first Next: ok=%v err=%v", ok, err)
				}
				m, _ := f.run(t, shape, r)
				cuts := slices.Clone(m.cuts)
				rows.Close()
				if first == nil {
					first = cuts
				} else if !slices.Equal(cuts, first) {
					t.Fatalf("run %d cut the scan differently:\n%v\n%v", i, cuts, first)
				}
			}
			total, unit, limit := f.tab.Pages(), 1, morselPages
			if shape == "fin" {
				total, unit, limit = 30000, finalFetchBudget, morselRIDs
			}
			rowsPerPage := len(f.rows)/f.tab.Pages() + 1
			if first[0] != 0 || first[len(first)-1] != total {
				t.Fatalf("schedule covers [%d, %d), want [0, %d)", first[0], first[len(first)-1], total)
			}
			for i := 1; i < len(first); i++ {
				size, slack := first[i]-first[i-1], 0
				if shape == "fin" {
					slack = 2 * rowsPerPage // a cut advanced to its page's end
				}
				want := min(unit<<((i-1)/morselWidth), limit)
				if size <= 0 || size > want+slack || (shape == "tscan" && i < len(first)-1 && size != want) {
					t.Fatalf("morsel %d has %d units, scheduled %d (+%d): %v", i-1, size, want, slack, first)
				}
			}
		})
	}
}

// TestMorselUnwinding unwinds every shape that streams — a partitioned
// Tscan, a partitioned Fin, the sort node over one, a join whose driver
// partitions, a DELETE's victim retrieval — with its workers live: Close
// after the first row, Close unread, cancellation while the consumer
// sits between two Next calls (the sort node drains inside Run, so its
// cancellation is the 20th governor checkpoint), budget exhaustion
// inside a worker; Close is always called twice. Each must leave no pin
// and no goroutine, have every worker charge attributed exactly once
// (in-flight morsels included: what the governor was charged is what
// the stats hold — a failed sort keeps no stats), and record the
// cancellation once, or not at all.
func TestMorselUnwinding(t *testing.T) {
	f := newMorselFixture(t)
	jf := newJoinFixture(t, 2000, 6000, 20, 0, false)
	sorted := *f.tscanQ
	sorted.OrderBy = []int{f.col(t, "AGE")}
	victims := *f.finQ
	victims.Projection, victims.RIDs = []int{}, true
	shapes := []struct {
		name string
		run  func(*Optimizer, *ExecCtx) Rows
	}{
		{"tscan", func(o *Optimizer, ec *ExecCtx) Rows { return o.RunExec(ec, f.tscanQ) }},
		{"fin", func(o *Optimizer, ec *ExecCtx) Rows { return o.RunPlan(ec, f.finQ, finPlan) }},
		{"sort-over-tscan", func(o *Optimizer, ec *ExecCtx) Rows { return o.RunExec(ec, &sorted) }},
		{"join-driver", func(o *Optimizer, ec *ExecCtx) Rows { return o.RunJoin(ec, jf.custOrdQuery(nil), nil) }},
		{"delete-victims", func(o *Optimizer, ec *ExecCtx) Rows { return o.RunPlan(ec, &victims, finPlan) }},
	}
	cases := []struct {
		name   string
		rows   int   // rows pulled before the unwinding
		budget int64 // 0 = none
		cancel bool
	}{
		{name: "close-after-first-row", rows: 1},
		{name: "close-unread"},
		{name: "cancel-between-nexts", rows: 1, cancel: true},
		{name: "budget-in-worker", budget: 40},
	}
	cfg := DefaultConfig()
	cfg.Parallelism = morselWidth
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			sorts := sh.name == "sort-over-tscan"
			// The shape streams: its clean run says so.
			clean := sh.run(NewOptimizer(cfg), nil)
			if _, err := drainToErr(clean); err != nil {
				t.Fatal(err)
			}
			clean.Close()
			if st := clean.Stats(); !slices.ContainsFunc(st.Events, func(ev TraceEvent) bool {
				return ev.Kind == EvScanComplete && strings.Contains(ev.Detail, "streamed: 2 workers")
			}) {
				t.Fatalf("no streamed scan in the clean run; trace: %v", st.Trace())
			}
			for _, uc := range cases {
				t.Run(uc.name, func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					if uc.cancel && sorts {
						ctx = newNthCancelCtx(20)
					}
					budget, wantErr := int64(1<<40), error(nil)
					switch {
					case uc.cancel:
						wantErr = context.Canceled
					case uc.budget > 0:
						budget, wantErr = uc.budget, ErrBudgetExceeded
					}
					ec := NewExecCtx(ctx, budget)
					o := NewOptimizer(cfg)
					f.pool.EvictAll()
					jf.pool.EvictAll()
					rows := sh.run(o, ec)
					var err error
					for i := 0; i < uc.rows && err == nil; i++ {
						_, _, err = rows.Next()
					}
					if uc.cancel {
						// The workers run on to the window while the
						// consumer is away; the cancellation finds them
						// parked there.
						quiesce(poolReads(f.pool))
						cancel()
					}
					if wantErr != nil {
						_, err = drainToErr(rows)
					}
					if !errors.Is(err, wantErr) {
						t.Fatalf("err = %v, want %v", err, wantErr)
					}
					rows.Close()
					rows.Close()
					if p := f.pool.PinnedPages() + jf.pool.PinnedPages(); p != 0 {
						t.Fatalf("%d pins leaked", p)
					}
					waitGoroutines(t, baseline)
					st := rows.Stats()
					if spent := ec.IOSpent(); st.IO.IOCost()+st.EstimateIO != spent && !(sorts && err != nil) {
						t.Fatalf("attributed %d + estimate %d, the query's workers charged %d; trace: %v",
							st.IO.IOCost(), st.EstimateIO, spent, st.Trace())
					}
					snap := o.Metrics().Snapshot()
					cancelled := snap.QueriesCancelled + snap.QueriesDeadlineExceeded + snap.QueriesBudgetExceeded
					if (cancelled == 1) != (wantErr != nil) || cancelled > 1 {
						t.Fatalf("err = %v, cancellation recorded %d times: %+v", wantErr, cancelled, snap)
					}
				})
			}
		})
	}
}

// TestMorselContract pins the protocol of the one launcher: the
// lowest-index error wins whatever the finishing order, every morsel's
// charges — failed morsels included — are in the parent tracker by the
// time the error returns, a failure raises the stop flag for the
// siblings, and a clean run merges in full.
func TestMorselContract(t *testing.T) {
	f := newFixture(t, 2000)
	heap := f.tab.Heap
	if heap.NumPages() < 8 {
		t.Fatalf("fixture heap has %d pages, want >= 8", heap.NumPages())
	}
	// touch charges tr one page access per page of morsel i's private
	// page pair, so each morsel leaves a distinct, known charge.
	touch := func(i int, tr *storage.Tracker) {
		for p := 2 * i; p < 2*i+2; p++ {
			cur := heap.RangeCursorTracked(storage.PageNo(p), storage.PageNo(p+1), tr)
			if _, _, _, err := cur.Next(); err != nil {
				t.Error(err)
			}
			cur.Close()
		}
	}
	errLow, errHigh := errors.New("morsel 1 failed"), errors.New("morsel 3 failed")

	t.Run("two failures", func(t *testing.T) {
		f.pool.EvictAll()
		baseline := runtime.NumGoroutine()
		parent := storage.NewTracker(nil)
		var sawStop atomic.Int32
		release := make(chan struct{})
		// Four one-unit morsels on four workers: morsels 0 to 2 wait for
		// morsel 3, so each worker holds one.
		m := startMorsels(parent, 4, 4, 1, 1, nil, func(i, _ int, stop *atomic.Bool, w *morselWorker) error {
			touch(i, w.tr)
			switch i {
			case 3:
				// The higher index fails first; the lower one only after.
				defer close(release)
				return errHigh
			case 1:
				<-release
				return errLow
			}
			// Healthy siblings spin until the failure reaches them.
			<-release
			for !stop.Load() {
				runtime.Gosched()
			}
			sawStop.Add(1)
			return nil
		})
		var out rowQueue
		if done, err := m.step(&out); err != errLow || done {
			t.Fatalf("step: done=%v err=%v, want the lowest-index morsel's error (%v)", done, err, errLow)
		}
		if got := parent.Stats().Reads; got != 8 {
			t.Fatalf("parent holds %d reads at error return, want all 8 (2 per morsel, failed morsels included)", got)
		}
		if sawStop.Load() != 2 {
			t.Fatalf("%d healthy siblings observed the stop flag, want 2", sawStop.Load())
		}
		if !out.empty() {
			t.Fatal("a stopped run handed rows over")
		}
		waitGoroutines(t, baseline)
	})

	t.Run("clean run merges in full", func(t *testing.T) {
		f.pool.EvictAll()
		baseline := runtime.NumGoroutine()
		parent := storage.NewTracker(nil)
		m := startMorsels(parent, 3, 3, 1, 1, nil, func(i, _ int, _ *atomic.Bool, w *morselWorker) error {
			touch(i, w.tr)
			return nil
		})
		var out rowQueue
		steps := 0
		for done := false; !done; steps++ {
			var err error
			if done, err = m.step(&out); err != nil {
				t.Fatal(err)
			}
		}
		if steps != 4 || parent.Stats().Reads != 6 {
			t.Fatalf("%d steps, reads = %d; want 3 morsels and the end, and 6", steps, parent.Stats().Reads)
		}
		waitGoroutines(t, baseline)
	})
}
