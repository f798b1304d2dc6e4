package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// fixture builds a PEOPLE table: ID sequential, AGE uniform [0,100),
// CITY Zipf-ish skewed over [0,100), SALARY float, NAME string.
type fixture struct {
	cat  *catalog.Catalog
	tab  *catalog.Table
	pool *storage.BufferPool
	rows []expr.Row
}

func newFixture(t testing.TB, n int, indexes ...string) *fixture {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(4096), 0)
	cat := catalog.New(pool)
	tab, err := cat.CreateTable("PEOPLE", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "AGE", Type: expr.TypeInt},
		{Name: "CITY", Type: expr.TypeInt},
		{Name: "SALARY", Type: expr.TypeFloat},
		{Name: "NAME", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range indexes {
		cols := strings.Split(ix, "+")
		if _, err := tab.CreateIndex("IX_"+ix, cols...); err != nil {
			t.Fatal(err)
		}
	}
	f := &fixture{cat: cat, tab: tab, pool: pool}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		city := int64(0)
		// Skewed: 60% city 0, the rest spread.
		if rng.Intn(10) >= 6 {
			city = 1 + rng.Int63n(99)
		}
		row := expr.Row{
			expr.Int(int64(i)),
			expr.Int(rng.Int63n(100)),
			expr.Int(city),
			expr.Float(float64(rng.Intn(100000)) / 10),
			expr.Str(fmt.Sprintf("name-%04d", rng.Intn(500))),
		}
		if _, err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
		f.rows = append(f.rows, row)
	}
	return f
}

func (f *fixture) col(t testing.TB, name string) int {
	t.Helper()
	i, err := f.tab.ColumnIndex(name)
	if err != nil {
		t.Fatal(err)
	}
	return i
}

// naive computes the expected result set by in-memory evaluation.
func (f *fixture) naive(t testing.TB, q *Query) []expr.Row {
	t.Helper()
	var out []expr.Row
	for _, row := range f.rows {
		keep, err := expr.EvalPred(q.Restriction, row, q.Binds)
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			out = append(out, projectRow(row, q.Projection))
		}
	}
	return out
}

// rowKey canonicalizes a row for multiset comparison.
func rowKey(r expr.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

func drain(t testing.TB, rows Rows) []expr.Row {
	t.Helper()
	var out []expr.Row
	for {
		row, ok, err := rows.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameMultiset fails the test unless got and want contain the same rows
// (any order).
func sameMultiset(t testing.TB, got, want []expr.Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", label, len(got), len(want))
	}
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i := range got {
		g[i] = rowKey(got[i])
		w[i] = rowKey(want[i])
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: multiset mismatch at %d:\n got %s\nwant %s", label, i, g[i], w[i])
		}
	}
}

func TestInferGoal(t *testing.T) {
	cases := []struct {
		ctl  ControlNode
		user Goal
		want Goal
	}{
		{ControlExists, GoalDefault, GoalFastFirst},
		{ControlLimit, GoalTotalTime, GoalFastFirst},
		{ControlSort, GoalFastFirst, GoalTotalTime},
		{ControlAggregate, GoalDefault, GoalTotalTime},
		{ControlNone, GoalFastFirst, GoalFastFirst},
		{ControlNone, GoalDefault, GoalTotalTime},
	}
	for _, c := range cases {
		if got := InferGoal(c.ctl, c.user); got != c.want {
			t.Errorf("InferGoal(%v, %v) = %v, want %v", c.ctl, c.user, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	f := newFixture(t, 500, "AGE", "CITY+AGE")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.GT, expr.Col(age, "AGE"), expr.Lit(expr.Int(30))),
			expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(5))),
		),
		Projection: []int{age, city},
	}
	cl := Classify(q)
	// IX_CITY+AGE covers AGE and CITY: self-sufficient; IX_AGE is
	// fetch-needed only if it doesn't cover (it doesn't: CITY needed).
	if len(cl.SelfSufficient) != 1 || cl.SelfSufficient[0].Name != "IX_CITY+AGE" {
		t.Fatalf("self-sufficient: %+v", cl.SelfSufficient)
	}
	if len(cl.FetchNeeded) != 1 || cl.FetchNeeded[0].Name != "IX_AGE" {
		t.Fatalf("fetch-needed: %+v", cl.FetchNeeded)
	}
	// Order on CITY,AGE: delivered by IX_CITY+AGE.
	q.OrderBy = []int{city, age}
	cl = Classify(q)
	if len(cl.OrderNeeded) != 1 {
		t.Fatalf("order-needed: %+v", cl.OrderNeeded)
	}
	// With full projection, no index is self-sufficient.
	q.Projection = nil
	cl = Classify(q)
	if len(cl.SelfSufficient) != 0 {
		t.Fatalf("full projection should defeat self-sufficiency: %+v", cl.SelfSufficient)
	}
}

func TestTscanWhenNoIndexes(t *testing.T) {
	f := newFixture(t, 2000)
	age := f.col(t, "AGE")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "tscan")
	st := rows.Stats()
	if st.Tactic != "tscan" {
		t.Fatalf("tactic = %s", st.Tactic)
	}
}

func TestEmptyRangeShortcut(t *testing.T) {
	f := newFixture(t, 2000, "AGE")
	age := f.col(t, "AGE")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(200))),
	}
	o := NewOptimizer(DefaultConfig())
	f.pool.ResetStats()
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	if len(got) != 0 {
		t.Fatalf("got %d rows", len(got))
	}
	if rows.Stats().Tactic != "empty-range" {
		t.Fatalf("tactic = %s", rows.Stats().Tactic)
	}
	// The shortcut must not have scanned anything: only estimation I/O.
	if c := f.pool.Stats().IOCost(); c > 10 {
		t.Fatalf("empty-range shortcut cost %d I/Os", c)
	}
}

func TestHostVariableChangesStrategy(t *testing.T) {
	// The paper's Section 4 example: the same prepared query with a
	// host variable must resolve to index retrieval on one run and
	// sequential retrieval on another. ID is unique, so the selective
	// binding touches only a handful of pages.
	f := newFixture(t, 20000, "ID")
	id := f.col(t, "ID")
	mk := func(a1 int64) *Query {
		return &Query{
			Table:       f.tab,
			Restriction: expr.NewCmp(expr.GE, expr.Col(id, "ID"), expr.Var("A1")),
			Binds:       expr.Bindings{"A1": expr.Int(a1)},
		}
	}
	o := NewOptimizer(DefaultConfig())

	// A1 = 19990: ten rows; the dynamic optimizer should resolve it
	// via the RID list, far cheaper than Tscan.
	f.pool.EvictAll()
	f.pool.ResetStats()
	qSmall := mk(19990)
	got := drain(t, o.RunExec(nil, qSmall))
	sameMultiset(t, got, f.naive(t, qSmall), "A1=19990")
	smallCost := f.pool.Stats().IOCost()

	// A1 = 0: everything matches; Jscan must abandon and fall back to
	// Tscan-equivalent cost, not pay index scan + random fetches.
	f.pool.EvictAll()
	f.pool.ResetStats()
	qAll := mk(0)
	got = drain(t, o.RunExec(nil, qAll))
	sameMultiset(t, got, f.naive(t, qAll), "A1=0")
	allCost := f.pool.Stats().IOCost()

	tscanCost := int64(f.tab.Pages())
	if smallCost > tscanCost/4 {
		t.Fatalf("selective run cost %d should be far below Tscan %d", smallCost, tscanCost)
	}
	// Dynamic all-rows run should stay within a small factor of Tscan
	// (estimation + abandoned scan overhead only).
	if allCost > 3*tscanCost {
		t.Fatalf("non-selective run cost %d should stay near Tscan %d", allCost, tscanCost)
	}
}

func TestBackgroundOnlyIntersectsIndexes(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(20))),
			expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(7))),
		),
		Goal: GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "background-only")
	st := rows.Stats()
	if st.Tactic != "background-only" {
		t.Fatalf("tactic = %s (strategy %s)", st.Tactic, st.Strategy)
	}
	if st.FinalListLen < 0 {
		t.Fatalf("expected a final RID list; strategy %s", st.Strategy)
	}
}

func TestJscanRecommendsTscanOnHugeRanges(t *testing.T) {
	f := newFixture(t, 10000, "AGE")
	age := f.col(t, "AGE")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(1))),
		Goal:        GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "tscan-recommend")
	st := rows.Stats()
	if !strings.Contains(st.Strategy, "Tscan") {
		t.Fatalf("expected Tscan in strategy %q", st.Strategy)
	}
}

func TestFastFirstDeliversEarlyAndCheap(t *testing.T) {
	f := newFixture(t, 20000, "CITY")
	city := f.col(t, "CITY")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(13))),
		Limit:       3,
		Control:     ControlLimit, // infers fast-first
	}
	o := NewOptimizer(DefaultConfig())
	f.pool.EvictAll()
	f.pool.ResetStats()
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	if len(got) != 3 {
		t.Fatalf("limit 3 delivered %d", len(got))
	}
	st := rows.Stats()
	if st.Tactic != "fast-first" {
		t.Fatalf("tactic = %s", st.Tactic)
	}
	cost := f.pool.Stats().IOCost()
	if cost > int64(f.tab.Pages())/5 {
		t.Fatalf("fast-first early termination cost %d too close to Tscan %d", cost, f.tab.Pages())
	}
	// Every delivered row satisfies the restriction.
	for _, r := range got {
		if r[city].I != 13 {
			t.Fatalf("row %v fails restriction", r)
		}
	}
}

func TestFastFirstCompletesFullyWithoutDuplicates(t *testing.T) {
	f := newFixture(t, 10000, "CITY")
	city := f.col(t, "CITY")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(22))),
		Goal:        GoalFastFirst,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "fast-first full drain")
}

func TestFastFirstOverflowSwitchesToFinal(t *testing.T) {
	f := newFixture(t, 10000, "CITY")
	city := f.col(t, "CITY")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(city, "CITY"), expr.Lit(expr.Int(50))),
		Goal:        GoalFastFirst,
	}
	cfg := DefaultConfig()
	cfg.FgBufferCap = 16 // force overflow quickly
	o := NewOptimizer(cfg)
	ec, log := tracedCtx()
	rows := o.RunExec(ec, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "fast-first overflow")
	if evs := log.Take(); !hasEvent(evs, EvBorrowOverflow, "") {
		t.Fatalf("expected a borrow-overflow event in trace: %v", evs)
	}
}

func TestSortedTacticOrderAndFilter(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
			expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(3))),
		),
		OrderBy: []int{age},
		// The sorted tactic is the paper's fast-first + order
		// arrangement; total-time ordered queries may choose
		// materialize-and-sort instead.
		Goal: GoalFastFirst,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "sorted tactic")
	// Order check.
	for i := 1; i < len(got); i++ {
		if got[i][age].I < got[i-1][age].I {
			t.Fatalf("order violated at %d", i)
		}
	}
	st := rows.Stats()
	if st.Tactic != "sorted" && st.Tactic != "fscan" {
		t.Fatalf("tactic = %s (strategy %s)", st.Tactic, st.Strategy)
	}
	// A total-time ordered query over a huge range should instead fall
	// back to materialize-and-sort when the ordered Fscan is projected
	// to lose.
	q2 := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(0))),
		OrderBy:     []int{age},
		Goal:        GoalTotalTime,
	}
	rows2 := o.RunExec(nil, q2)
	got2 := drain(t, rows2)
	sameMultiset(t, got2, f.naive(t, q2), "ordered total-time fallback")
	if !strings.HasPrefix(rows2.Stats().Tactic, "sort(") {
		t.Fatalf("expected sort fallback, got %s", rows2.Stats().Tactic)
	}
}

func TestSortFallbackWithoutOrderIndex(t *testing.T) {
	f := newFixture(t, 3000, "CITY")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(2))),
		OrderBy:     []int{age},
		Projection:  []int{age, city},
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "sort fallback")
	for i := 1; i < len(got); i++ {
		if got[i][0].I < got[i-1][0].I {
			t.Fatalf("sort fallback order violated")
		}
	}
	if !strings.HasPrefix(rows.Stats().Tactic, "sort(") {
		t.Fatalf("tactic = %s", rows.Stats().Tactic)
	}

	// Regression: a LIMIT over the SORT node caps what is delivered, not
	// what was sorted — the node used to count the rows it consumed and
	// deliver nothing once they reached the limit.
	limited := *q
	limited.Limit = 5
	rows = o.RunExec(nil, &limited)
	top := drain(t, rows)
	if len(top) != 5 || rows.Stats().RowsDelivered != 5 {
		t.Fatalf("LIMIT 5 over sort delivered %d rows (stats say %d)", len(top), rows.Stats().RowsDelivered)
	}
	for i := range top {
		if top[i][0].I != got[i][0].I {
			t.Fatalf("LIMIT 5 row %d has sort key %d, want %d", i, top[i][0].I, got[i][0].I)
		}
	}
}

func TestIndexOnlyTactic(t *testing.T) {
	f := newFixture(t, 10000, "AGE+ID", "CITY")
	age, city, id := f.col(t, "AGE"), f.col(t, "CITY"), f.col(t, "ID")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(30))),
			expr.NewCmp(expr.GE, expr.Col(city, "CITY"), expr.Lit(expr.Int(0))),
		),
		Projection: []int{age, id},
		Goal:       GoalTotalTime,
	}
	// IX_AGE+ID covers AGE and ID (restriction uses CITY though, so it
	// is NOT self-sufficient). Rework: restriction only on AGE.
	q.Restriction = expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(30)))
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "sscan static")
	if st := rows.Stats(); st.Tactic != "sscan" {
		t.Fatalf("tactic = %s (strategy %s)", st.Tactic, st.Strategy)
	}
	// Now add a CITY conjunct that IX_CITY can prefilter: index-only
	// competition (self-sufficient candidate is gone, so rebuild with a
	// covered restriction plus a fetch-needed index).
	q2 := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(30))),
			expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(5000))),
		),
		Projection: []int{age, id},
		Goal:       GoalTotalTime,
	}
	rows = o.RunExec(nil, q2)
	got = drain(t, rows)
	sameMultiset(t, got, f.naive(t, q2), "index-only")
}

func TestSscanEmptyRange(t *testing.T) {
	f := newFixture(t, 1000, "AGE+ID")
	age, id := f.col(t, "AGE"), f.col(t, "ID")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.EQ, expr.Col(age, "AGE"), expr.Lit(expr.Int(500))),
		Projection:  []int{age, id},
	}
	o := NewOptimizer(DefaultConfig())
	got := drain(t, o.RunExec(nil, q))
	if len(got) != 0 {
		t.Fatalf("got %d rows", len(got))
	}
}

func TestPreviousOrderReused(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(50))),
			expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(9))),
		),
		Goal: GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	drain(t, rows)
	st := rows.Stats()
	if len(st.WinningOrder) == 0 {
		t.Skipf("no winning order recorded (strategy %s)", st.Strategy)
	}
	if rec := o.learned[learnedKey{f.tab.Name, ""}]; rec == nil || len(rec.order) == 0 {
		t.Fatal("optimizer did not record the winning order")
	}
}

func TestErrorsSurfaceThroughRows(t *testing.T) {
	f := newFixture(t, 100, "AGE")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(f.col(t, "AGE"), "AGE"), expr.Var("UNBOUND_TYPED")),
	}
	// Unbound parameter: not sargable, so Tscan runs and hits the
	// evaluation error on the first row.
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	_, _, err := rows.Next()
	if err == nil {
		t.Fatal("expected unbound-parameter error")
	}
	// The error is sticky.
	if _, _, err2 := rows.Next(); err2 == nil {
		t.Fatal("error must be sticky")
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	f := newFixture(t, 10)
	o := NewOptimizer(DefaultConfig())
	if _, _, err := o.RunExec(nil, &Query{Table: nil}).Next(); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, _, err := o.RunExec(nil, &Query{Table: f.tab, Projection: []int{99}}).Next(); err == nil {
		t.Fatal("bad projection accepted")
	}
	bad := &expr.Cmp{Op: expr.EQ, L: expr.Col(0, "ID"), R: nil}
	if _, _, err := o.RunExec(nil, &Query{Table: f.tab, Restriction: bad}).Next(); err == nil {
		t.Fatal("invalid expression accepted")
	}
}

// TestRandomizedAgainstNaive is the main correctness property: random
// queries over random data through the full dynamic optimizer must
// return exactly the naive evaluation's multiset, for every tactic the
// planner happens to pick.
func TestRandomizedAgainstNaive(t *testing.T) {
	f := newFixture(t, 8000, "AGE", "CITY", "ID", "AGE+CITY")
	age, city, id := f.col(t, "AGE"), f.col(t, "CITY"), f.col(t, "ID")
	rng := rand.New(rand.NewSource(99))
	o := NewOptimizer(DefaultConfig())
	tactics := map[string]int{}
	randCmp := func() expr.Expr {
		col, lim := age, int64(100)
		switch rng.Intn(3) {
		case 1:
			col, lim = city, 100
		case 2:
			col, lim = id, 8000
		}
		ops := []expr.CmpOp{expr.EQ, expr.LT, expr.LE, expr.GT, expr.GE}
		return expr.NewCmp(ops[rng.Intn(len(ops))], expr.Col(col, f.tab.Columns[col].Name), expr.Lit(expr.Int(rng.Int63n(lim))))
	}
	for trial := 0; trial < 60; trial++ {
		var restriction expr.Expr
		switch rng.Intn(4) {
		case 0:
			restriction = randCmp()
		case 1:
			restriction = expr.NewAnd(randCmp(), randCmp())
		case 2:
			restriction = expr.NewAnd(randCmp(), randCmp(), randCmp())
		case 3:
			restriction = expr.NewOr(randCmp(), randCmp())
		}
		q := &Query{Table: f.tab, Restriction: restriction}
		if rng.Intn(2) == 0 {
			q.Goal = GoalFastFirst
		}
		if rng.Intn(4) == 0 {
			q.OrderBy = []int{age}
		}
		rows := o.RunExec(nil, q)
		got := drain(t, rows)
		want := f.naive(t, q)
		tactics[rows.Stats().Tactic]++
		if len(got) != len(want) {
			t.Fatalf("trial %d (%s, tactic %s): got %d rows, want %d\nstrategy: %s",
				trial, restriction, rows.Stats().Tactic, len(got), len(want), rows.Stats().Strategy)
		}
		sameMultiset(t, got, want, fmt.Sprintf("trial %d (%s)", trial, restriction))
	}
	t.Logf("tactics exercised: %v", tactics)
	if len(tactics) < 3 {
		t.Fatalf("randomized test exercised too few tactics: %v", tactics)
	}
}

func TestStaticThresholdBaselineStillCorrect(t *testing.T) {
	f := newFixture(t, 8000, "AGE", "CITY")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(40))),
			expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(4))),
		),
		Goal: GoalTotalTime,
	}
	cfg := DefaultConfig()
	cfg.StaticThresholds = true
	o := NewOptimizer(cfg)
	got := drain(t, o.RunExec(nil, q))
	sameMultiset(t, got, f.naive(t, q), "static thresholds")
}

func TestDisableCompetitionStillCorrect(t *testing.T) {
	f := newFixture(t, 8000, "AGE", "CITY")
	age := f.col(t, "AGE")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(5))),
		Goal:        GoalTotalTime,
	}
	cfg := DefaultConfig()
	cfg.DisableCompetition = true
	o := NewOptimizer(cfg)
	got := drain(t, o.RunExec(nil, q))
	sameMultiset(t, got, f.naive(t, q), "no competition")
}

func TestCloseEarlyIsSafe(t *testing.T) {
	f := newFixture(t, 5000, "CITY")
	city := f.col(t, "CITY")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(city, "CITY"), expr.Lit(expr.Int(0))),
		Goal:        GoalFastFirst,
	}
	o := NewOptimizer(DefaultConfig())
	rows := o.RunExec(nil, q)
	// Pull two rows then close (the paper's forceful termination).
	for i := 0; i < 2; i++ {
		if _, ok, err := rows.Next(); err != nil || !ok {
			t.Fatalf("pull %d: %v %v", i, ok, err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); ok || err != nil {
		t.Fatalf("Next after Close: %v %v", ok, err)
	}
}
