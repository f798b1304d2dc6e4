package core

import (
	"context"
	"errors"
	"testing"

	"rdbdyn/internal/expr"
)

// eventTrigger is a TraceLog that fires a callback when the n-th
// event of a given kind is emitted. Retrieval event emission is
// confined to the pulling goroutine, so the trigger needs no locking.
type eventTrigger struct {
	TraceLog
	kind  EventKind
	after int // skip this many matching events first
	seen  int
	fire  func()
	fired bool
}

func (e *eventTrigger) Event(ev TraceEvent) {
	e.TraceLog.Event(ev)
	if e.fired || ev.Kind != e.kind {
		return
	}
	if e.seen < e.after {
		e.seen++
		return
	}
	e.fired = true
	e.fire()
}

// drainToErr pulls rows until an error or end of data, returning the
// delivered count and the terminal error (nil at a clean end).
func drainToErr(rows Rows) (int, error) {
	n := 0
	for {
		_, ok, err := rows.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// bgQuery builds the two-fetch-needed-index restriction that plans as
// background-only (Jscan over IX_AGE and IX_CITY) on the 10k fixture.
func bgQuery(f *fixture, t *testing.T, goal Goal) *Query {
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	return &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(20))),
			expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(7))),
		),
		Goal: goal,
	}
}

// checkCancelled asserts the common post-cancellation contract: the
// typed query-cancelled event is among the query's events, every
// buffer-pool pin has been released, and the cumulative metrics counted
// the query exactly once under the right counter.
func checkCancelled(t *testing.T, f *fixture, rows Rows, o *Optimizer, evs []TraceEvent, wantDeadline, wantBudget bool) {
	t.Helper()
	if !hasEvent(evs, EvQueryCancelled, "") {
		t.Fatalf("no query-cancelled event; trace: %v", evs)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after cancellation: %v", err)
	}
	if n := f.pool.PinnedPages(); n != 0 {
		t.Fatalf("%d buffer-pool pins leaked after cancellation", n)
	}
	snap := o.Metrics().Snapshot()
	total := snap.QueriesCancelled + snap.QueriesDeadlineExceeded + snap.QueriesBudgetExceeded
	if total != 1 {
		t.Fatalf("cancellation recorded %d times, want exactly 1 (%+v)", total, snap)
	}
	switch {
	case wantDeadline && snap.QueriesDeadlineExceeded != 1:
		t.Fatalf("deadline cancellation miscounted: %+v", snap)
	case wantBudget && snap.QueriesBudgetExceeded != 1:
		t.Fatalf("budget cancellation miscounted: %+v", snap)
	case !wantDeadline && !wantBudget && snap.QueriesCancelled != 1:
		t.Fatalf("plain cancellation miscounted: %+v", snap)
	}
}

// TestCancelDuringJscanRIDCollection cancels while the background
// Jscan is still collecting RIDs (its first scan-started event) and
// expects context.Canceled from Next within the cooperative unwind,
// scan-abandoned events for the live stages, and zero leaked pins.
func TestCancelDuringJscanRIDCollection(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	q := bgQuery(f, t, GoalTotalTime)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trig := &eventTrigger{kind: EvScanStarted, fire: cancel}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(NewExecCtx(ctx, 0).WithTrace(trig), q)
	if _, err := drainToErr(rows); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	evs := trig.Take()
	if !hasEvent(evs, EvScanAbandoned, "") {
		t.Fatalf("no scan-abandoned for the live Jscan; trace: %v", evs)
	}
	checkCancelled(t, f, rows, o, evs, false, false)
}

// TestCancelDuringFinalFetchStage cancels after the background stage
// completed and the retrieval entered its final (fetch) stage.
func TestCancelDuringFinalFetchStage(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	q := bgQuery(f, t, GoalTotalTime)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trig := &eventTrigger{kind: EvFinalStage, fire: cancel}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(NewExecCtx(ctx, 0).WithTrace(trig), q)
	if _, err := drainToErr(rows); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkCancelled(t, f, rows, o, trig.Take(), false, false)
}

// TestBudgetExhaustionMidSequentialScan runs an unindexed restriction
// (plain Tscan) under a tiny I/O budget and expects ErrBudgetExceeded
// exactly at the budget boundary: not one simulated page I/O more.
func TestBudgetExhaustionMidSequentialScan(t *testing.T) {
	f := newFixture(t, 10000)
	salary := f.col(t, "SALARY")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(salary, "SALARY"), expr.Lit(expr.Float(0))),
	}
	// Budgets meter genuine simulated I/O (buffer-pool misses), the
	// paper's cost unit; start cold so the sequential scan pays them.
	f.pool.EvictAll()
	const budget = 25
	log := &TraceLog{}
	ec := NewExecCtx(context.Background(), budget).WithTrace(log)
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(ec, q)
	if _, err := drainToErr(rows); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if spent := ec.IOSpent(); spent != budget {
		t.Fatalf("spent %d simulated I/Os, want exactly the budget %d", spent, budget)
	}
	checkCancelled(t, f, rows, o, log.Take(), false, true)
}

// TestDeadlineExpiredBeforeRun covers the pre-flight checkpoint: a
// context already past its deadline fails before planning spends any
// I/O, and the metrics count it as a deadline expiry.
func TestDeadlineExpiredBeforeRun(t *testing.T) {
	f := newFixture(t, 1000, "AGE")
	age := f.col(t, "AGE")
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(NewExecCtx(ctx, 0), &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
	})
	if _, _, err := rows.Next(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := f.pool.PinnedPages(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
	if snap := o.Metrics().Snapshot(); snap.QueriesDeadlineExceeded != 1 {
		t.Fatalf("deadline expiry not counted: %+v", snap)
	}
}

// TestCancelSweepNoPinsLeaked cancels at every interesting event kind
// across the tactic spectrum and asserts that no run — whether it was
// cut down mid-competition, mid-race, or mid-fetch, or happened to
// finish before the trigger fired — leaks a buffer-pool pin or loses
// the cancellation accounting.
func TestCancelSweepNoPinsLeaked(t *testing.T) {
	kinds := []EventKind{EvTacticChosen, EvScanStarted, EvRaceStarted, EvScanComplete, EvFinalStage, EvStrategySwitch}
	f := newFixture(t, 10000, "AGE", "CITY", "AGE+ID")
	age, city, id := f.col(t, "AGE"), f.col(t, "CITY"), f.col(t, "ID")
	queries := map[string]*Query{
		"background-only": bgQuery(f, t, GoalTotalTime),
		"fast-first":      bgQuery(f, t, GoalFastFirst),
		"index-only": {
			Table: f.tab,
			Restriction: expr.NewAnd(
				expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(30))),
				expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(5000))),
			),
			Projection: []int{age, id},
			Goal:       GoalTotalTime,
		},
		"sorted": {
			Table: f.tab,
			Restriction: expr.NewAnd(
				expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
				expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(3))),
			),
			OrderBy: []int{age},
			Goal:    GoalFastFirst,
		},
		"tscan-recommend": {
			Table:       f.tab,
			Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(1))),
			Goal:        GoalTotalTime,
		},
	}
	for name, q := range queries {
		for _, kind := range kinds {
			ctx, cancel := context.WithCancel(context.Background())
			trig := &eventTrigger{kind: kind, fire: cancel}
			ec := NewExecCtx(ctx, 0).WithTrace(trig)
			o := NewOptimizer(DefaultConfig())
			rows := o.RunExec(ec, q)
			_, err := drainToErr(rows)
			rows.Close()
			cancel()
			if n := f.pool.PinnedPages(); n != 0 {
				t.Fatalf("%s/%v: %d pins leaked", name, kind, n)
			}
			snap := o.Metrics().Snapshot()
			switch {
			case err == nil:
				// The trigger never fired (or fired after the last
				// I/O): a clean completion must record nothing.
				if snap.QueriesCancelled != 0 {
					t.Fatalf("%s/%v: clean run counted as cancelled", name, kind)
				}
			case errors.Is(err, context.Canceled):
				if evs := trig.Take(); !hasEvent(evs, EvQueryCancelled, "") {
					t.Fatalf("%s/%v: no query-cancelled event; trace: %v", name, kind, evs)
				}
				if snap.QueriesCancelled != 1 {
					t.Fatalf("%s/%v: cancellation counted %d times", name, kind, snap.QueriesCancelled)
				}
			default:
				t.Fatalf("%s/%v: unexpected error %v", name, kind, err)
			}
		}
	}
}

// TestCancelledRunPlan covers the pinned-plan path: RunPlan unwinds
// under a budget like the dynamic retrieval does.
func TestCancelledRunPlan(t *testing.T) {
	f := newFixture(t, 10000, "AGE")
	age := f.col(t, "AGE")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(0))),
	}
	f.pool.EvictAll()
	log := &TraceLog{}
	rows := NewOptimizer(Config{}).RunPlan(NewExecCtx(context.Background(), 10).WithTrace(log), q, &Plan{Tactic: "tscan"})
	if _, err := drainToErr(rows); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if evs := log.Take(); !hasEvent(evs, EvQueryCancelled, "") {
		t.Fatalf("no query-cancelled event; trace: %v", evs)
	}
	rows.Close()
	if n := f.pool.PinnedPages(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
}
