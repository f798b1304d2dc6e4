package core

import (
	"math/rand"
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// wideFixture builds a table with wide rows (few rows per page) so
// selectivities in the percent range behave like the paper's: random
// fetches genuinely cost pages. Columns: ID (sequential), A, B
// (uniform [0,10000)), PAD.
func wideFixture(t testing.TB, n int, indexes ...string) *fixture {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(4096), 256)
	cat := catalog.New(pool)
	tab, err := cat.CreateTable("W", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "A", Type: expr.TypeInt},
		{Name: "B", Type: expr.TypeInt},
		{Name: "PAD", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{cat: cat, tab: tab, pool: pool}
	for _, ix := range indexes {
		if _, err := tab.CreateIndex("IX_"+ix, strings.Split(ix, "+")...); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		row := expr.Row{
			expr.Int(int64(i)),
			expr.Int(rng.Int63n(10000)),
			expr.Int(rng.Int63n(10000)),
			expr.Str(strings.Repeat("p", 60)),
		}
		if _, err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
		f.rows = append(f.rows, row)
	}
	return f
}

// TestIndexOnlyJscanWinsAndSscanIsAbandoned forces the index-only
// competition to resolve in Jscan's favor: a wide covering-index range
// against a very selective fetch-needed index.
func TestIndexOnlyJscanWinsAndSscanIsAbandoned(t *testing.T) {
	f := wideFixture(t, 30000, "A+B", "B")
	aCol, _ := f.tab.ColumnIndex("A")
	bCol, _ := f.tab.ColumnIndex("B")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.LT, expr.Col(aCol, "A"), expr.Lit(expr.Int(9000))),
			expr.NewCmp(expr.LT, expr.Col(bCol, "B"), expr.Lit(expr.Int(40))),
		),
		Projection: []int{aCol, bCol},
		Goal:       GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	ec, log := tracedCtx()
	rows := o.RunExec(ec, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "index-only jscan wins")
	st, evs := rows.Stats(), log.Take()
	if st.Tactic != "index-only" {
		t.Fatalf("tactic = %s (trace %v)", st.Tactic, evs)
	}
	if !hasEvent(evs, EvRaceResolved, "") {
		t.Fatalf("expected a race-resolved event; trace: %v", evs)
	}
	abandoned := false
	for _, ev := range evs {
		if ev.Kind == EvScanAbandoned && strings.Contains(ev.Scan, "Sscan") {
			abandoned = true
		}
	}
	if !abandoned {
		t.Fatalf("expected the Sscan to be abandoned for the final stage; trace: %v", evs)
	}
	if !strings.Contains(st.Strategy, "Fin") {
		t.Fatalf("strategy %q should include the final stage", st.Strategy)
	}
}

// TestJscanMidScanAbandonment forces a sequential Jscan scan to be
// abandoned by the projection criterion mid-run (not by the pre-check):
// the first index's estimate is fine but the candidate acceptance rate
// projects a final cost near the Tscan guarantee.
func TestJscanMidScanAbandonment(t *testing.T) {
	f := wideFixture(t, 30000, "A")
	aCol, _ := f.tab.ColumnIndex("A")
	// ~28% of rows: the projected final fetch cost saturates the
	// Cardenas bound and crosses 95% of the Tscan guarantee mid-scan.
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.LT, expr.Col(aCol, "A"), expr.Lit(expr.Int(2800))),
		Goal:        GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	ec, log := tracedCtx()
	rows := o.RunExec(ec, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "mid-scan abandonment")
	st, evs := rows.Stats(), log.Take()
	if !hasEvent(evs, EvScanAbandoned, "IX_A") {
		t.Fatalf("expected mid-scan abandonment of IX_A; trace: %v", evs)
	}
	if !strings.Contains(st.Strategy, "Tscan") {
		t.Fatalf("strategy %q should have switched to Tscan", st.Strategy)
	}
}

// TestUnionFastFirstEarlyCloseKillsBackground exercises the uscan
// bgKill path: the caller closes the retrieval while the union is still
// scanning.
func TestUnionFastFirstEarlyCloseKillsBackground(t *testing.T) {
	f := wideFixture(t, 20000, "A", "B")
	aCol, _ := f.tab.ColumnIndex("A")
	bCol, _ := f.tab.ColumnIndex("B")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewOr(
			expr.NewCmp(expr.LT, expr.Col(aCol, "A"), expr.Lit(expr.Int(1000))),
			expr.NewCmp(expr.LT, expr.Col(bCol, "B"), expr.Lit(expr.Int(1000))),
		),
		Goal: GoalFastFirst,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	for i := 0; i < 3; i++ {
		if _, ok, err := rows.Next(); err != nil || !ok {
			t.Fatalf("pull %d: %v %v", i, ok, err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := rows.Next(); ok {
		t.Fatal("rows after Close")
	}
	// The stats must still assemble cleanly.
	st := rows.Stats()
	if st.Tactic != "fast-first" {
		t.Fatalf("tactic = %s", st.Tactic)
	}
}

// TestGoalStringsRender keeps every Goal printable.
func TestGoalStringsRender(t *testing.T) {
	for _, g := range []Goal{GoalDefault, GoalFastFirst, GoalTotalTime} {
		if g.String() == "" {
			t.Fatal("empty goal string")
		}
	}
}

// TestJscanEqualityLegSeeksOnlyOverOneKey: a Jscan's second leg reads
// through the first list's sorted keys by seeking only when its range is
// one full key value. CITY = 7 pins a CITY index whole, so that leg
// seeks; it pins a (CITY, AGE) index on CITY only, whose RIDs do not
// ascend across AGE values, so that leg walks. Both return the
// oracle's rows through a two-index Jscan.
func TestJscanEqualityLegSeeksOnlyOverOneKey(t *testing.T) {
	for _, c := range []struct {
		second string
		point  bool
	}{{"CITY", true}, {"CITY+AGE", false}} {
		f := newFixture(t, 20000, "SALARY", c.second)
		q := &Query{
			Table: f.tab,
			Restriction: expr.NewAnd(
				expr.NewCmp(expr.LT, expr.Col(f.col(t, "SALARY"), "SALARY"), expr.Lit(expr.Float(20))),
				expr.NewCmp(expr.EQ, expr.Col(f.col(t, "CITY"), "CITY"), expr.Lit(expr.Int(7))),
			),
			Goal: GoalTotalTime,
		}
		ix := f.tab.IndexByName("IX_" + c.second)
		if lo, hi, _, _ := ix.RestrictionBounds(q.Restriction, q.Binds); ix.PointRange(lo, hi) != c.point {
			t.Fatalf("%s: PointRange = %v, want %v", ix.Name, !c.point, c.point)
		}
		rows := NewOptimizer(DefaultConfig()).RunExec(nil, q)
		sameMultiset(t, drain(t, rows), f.naive(t, q), ix.Name)
		if want := "Jscan[IX_SALARY," + ix.Name + "]"; !strings.Contains(rows.Stats().Strategy, want) {
			t.Fatalf("strategy %q, want %s", rows.Stats().Strategy, want)
		}
	}
}
