package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// orRestriction builds (AGE < a) OR (CITY = c).
func orRestriction(t *testing.T, f *fixture, a, c int64) expr.Expr {
	t.Helper()
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	return expr.NewOr(
		expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(a))),
		expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(c))),
	)
}

func TestUnionScanCorrectness(t *testing.T) {
	f := newFixture(t, 8000, "AGE", "CITY")
	q := &Query{Table: f.tab, Restriction: orRestriction(t, f, 5, 17), Goal: GoalTotalTime}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "union scan")
	st := rows.Stats()
	if !strings.Contains(st.Strategy, "Uscan") {
		t.Fatalf("expected a union scan, got %q", st.Strategy)
	}
}

func TestUnionScanNoDuplicatesOnOverlap(t *testing.T) {
	f := newFixture(t, 5000, "AGE", "CITY")
	age := f.col(t, "AGE")
	// Heavily overlapping disjuncts on the same column.
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewOr(
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(8))),
		),
		Goal: GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "overlapping union")

	// Under fast-first the AGE overlap abandons into a Tscan; on a
	// clustered key the union survives and its foreground fetches from
	// the borrow stream, which must carry a row both legs match once.
	f = newFixture(t, 20000, "ID", "AGE", "CITY")
	id := f.col(t, "ID")
	idLT := func(v int64) expr.Expr { return expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(v))) }
	for _, or := range []expr.Expr{expr.NewOr(idLT(30), idLT(20)), expr.NewOr(idLT(20), idLT(30))} {
		for _, limit := range []int{0, 25} {
			q := &Query{Table: f.tab, Restriction: or, Goal: GoalFastFirst, Limit: limit}
			rows := NewOptimizer(DefaultConfig()).RunExec(nil, q)
			got := drain(t, rows)
			label := fmt.Sprintf("fast-first %s limit %d (%s)", or, limit, rows.Stats().Strategy)
			if st := rows.Stats(); st.Tactic != "fast-first" || !strings.Contains(st.Strategy, "Uscan") {
				t.Fatalf("%s: tactic %s, want a fast-first union", label, st.Tactic)
			}
			want := f.naive(t, q)
			if limit > 0 {
				// The first rows each leg delivers, in leg order: any limit
				// rows of the oracle's, each once.
				in := map[string]bool{}
				for _, r := range want {
					in[rowKey(r)] = true
				}
				want = nil
				for _, r := range got {
					if in[rowKey(r)] {
						want = append(want, r)
						delete(in, rowKey(r))
					}
				}
				if len(got) != limit {
					t.Fatalf("%s: %d rows", label, len(got))
				}
			}
			sameMultiset(t, got, want, label)
		}
	}
}

func TestUnionScanCheaperThanTscanWhenSelective(t *testing.T) {
	f := newFixture(t, 20000, "ID")
	id := f.col(t, "ID")
	// Two thin slices at opposite ends of the clustered unique key:
	// the union touches a handful of heap pages.
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewOr(
			expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(100))),
			expr.NewCmp(expr.GE, expr.Col(id, "ID"), expr.Lit(expr.Int(19900))),
		),
		Goal: GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	f.pool.EvictAll()
	f.pool.ResetStats()
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "selective union")
	cost := f.pool.Stats().IOCost()
	if cost > int64(f.tab.Pages())/3 {
		t.Fatalf("selective union cost %d vs Tscan %d", cost, f.tab.Pages())
	}
}

func TestUnionScanAbandonsToTscanWhenWide(t *testing.T) {
	f := newFixture(t, 20000, "AGE", "CITY")
	// Both disjuncts together match nearly everything.
	q := &Query{Table: f.tab, Restriction: orRestriction(t, f, 95, 0), Goal: GoalTotalTime}
	o := NewOptimizer(DefaultConfig())
	f.pool.EvictAll()
	f.pool.ResetStats()
	ec, log := tracedCtx()
	rows := o.RunExec(ec, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "wide union")
	cost := f.pool.Stats().IOCost()
	if cost > 3*int64(f.tab.Pages()) {
		t.Fatalf("abandoned union should cost ~Tscan: %d vs %d", cost, f.tab.Pages())
	}
	evs := log.Take()
	if !slices.ContainsFunc(evs, func(ev TraceEvent) bool { return ev.Kind == EvScanAbandoned && ev.Scan == "Uscan" }) {
		t.Fatalf("expected union abandonment in trace: %v", evs)
	}
}

func TestUnionScanUncoveredDisjunctFallsBackToTscan(t *testing.T) {
	f := newFixture(t, 3000, "AGE")
	age, salary := f.col(t, "AGE"), f.col(t, "SALARY")
	// SALARY has no index: the OR is not fully coverable.
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewOr(
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(5))),
			expr.NewCmp(expr.LT, expr.Col(salary, "SALARY"), expr.Lit(expr.Float(10))),
		),
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "uncovered OR")
	if st := rows.Stats(); st.Tactic != "tscan" {
		t.Fatalf("tactic = %s", st.Tactic)
	}
}

func TestUnionScanFastFirst(t *testing.T) {
	f := newFixture(t, 20000, "AGE", "CITY")
	q := &Query{
		Table:       f.tab,
		Restriction: orRestriction(t, f, 3, 29),
		Goal:        GoalFastFirst,
		Limit:       5,
	}
	o := NewOptimizer(DefaultConfig())
	f.pool.EvictAll()
	f.pool.ResetStats()
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	if len(got) != 5 {
		t.Fatalf("limit 5 delivered %d", len(got))
	}
	for _, r := range got {
		keep, err := expr.EvalPred(q.Restriction, r, nil)
		if err != nil || !keep {
			t.Fatalf("delivered row %v fails restriction", r)
		}
	}
	if cost := f.pool.Stats().IOCost(); cost > int64(f.tab.Pages())/4 {
		t.Fatalf("fast-first union early termination cost %d", cost)
	}
}

func TestUnionScanFastFirstFullDrain(t *testing.T) {
	f := newFixture(t, 8000, "AGE", "CITY")
	q := &Query{Table: f.tab, Restriction: orRestriction(t, f, 4, 31), Goal: GoalFastFirst}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "fast-first union drain")
}

func TestUnionScanEmptyDisjunct(t *testing.T) {
	f := newFixture(t, 3000, "AGE", "CITY")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewOr(
			expr.NewCmp(expr.EQ, expr.Col(age, "AGE"), expr.Lit(expr.Int(500))), // matches nothing
			expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(7))),
		),
		Goal: GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "empty disjunct")
}

func TestUnionWithConjunctionAroundIt(t *testing.T) {
	f := newFixture(t, 8000, "AGE", "CITY")
	age, city, id := f.col(t, "AGE"), f.col(t, "CITY"), f.col(t, "ID")
	// (AGE<4 OR CITY=11) AND ID >= 4000: the OR drives the union, the
	// extra conjunct is re-evaluated at the final stage.
	// ID is unindexed here, so the conjunct-level path finds nothing
	// and the union path applies.
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewOr(
				expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(4))),
				expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(11))),
			),
			expr.NewCmp(expr.GE, expr.Col(id, "ID"), expr.Lit(expr.Int(4000))),
		),
		Goal: GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "union under conjunction")
	if !strings.Contains(rows.Stats().Strategy, "Uscan") {
		t.Fatalf("expected Uscan, got %q", rows.Stats().Strategy)
	}
}

// TestFastFirstMultiIndexDrainWhileBackgroundRuns reproduces the
// scenario where the foreground exhausts its borrow stream while the
// background is still scanning later indexes: the background must be
// stopped cleanly without a final stage (the foreground delivered
// everything).
func TestFastFirstMultiIndexDrainWhileBackgroundRuns(t *testing.T) {
	f := newFixture(t, 20000, "CITY", "AGE", "ID")
	age, city, id := f.col(t, "AGE"), f.col(t, "CITY"), f.col(t, "ID")
	// CITY=31 is tiny (first, completes fast and closes the borrow
	// stream); AGE and ID ranges are broad, keeping the background busy.
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(31))),
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(90))),
			expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(18000))),
		),
		Goal: GoalFastFirst,
	}
	cfg := DefaultConfig()
	cfg.DisableCompetition = true // keep the background grinding through all indexes
	o := NewOptimizer(cfg)
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "multi-index fast-first")
}

func TestDedupSorted(t *testing.T) {
	mk := func(vals ...int) []storage.RID {
		out := make([]storage.RID, len(vals))
		for i, v := range vals {
			out[i] = storage.RID{Page: storage.PageID{No: storage.PageNo(v)}}
		}
		return out
	}
	got := dedupSorted(mk(1, 1, 2, 3, 3, 3, 4))
	if len(got) != 4 {
		t.Fatalf("dedup kept %d, want 4", len(got))
	}
	if len(dedupSorted(nil)) != 0 {
		t.Fatal("nil input")
	}
	if len(dedupSorted(mk(7))) != 1 {
		t.Fatal("single input")
	}
}
