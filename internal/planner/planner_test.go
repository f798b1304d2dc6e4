package planner

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

func buildTable(t testing.TB, n int) (*catalog.Table, *storage.BufferPool) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(4096), 0)
	cat := catalog.New(pool)
	tab, err := cat.CreateTable("T", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "AGE", Type: expr.TypeInt},
		{Name: "PAD", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("ID_IX", "ID"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("AGE_IX", "AGE"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		row := expr.Row{
			expr.Int(int64(i)),
			expr.Int(rng.Int63n(100)),
			expr.Str(strings.Repeat("x", 60)),
		}
		if _, err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab, pool
}

// replay runs a frozen plan the way every caller does: through
// Optimizer.RunPlan, the one pinned-plan runner.
func replay(p *Plan, q *core.Query) core.Rows {
	return core.NewOptimizer(core.Config{}).RunPlan(nil, q, p.Strategy)
}

func drainRows(t testing.TB, rows core.Rows) []expr.Row {
	t.Helper()
	var out []expr.Row
	for {
		row, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	rows.Close()
	return out
}

func TestPrepareDefaultsPickTscanForRangeOnParam(t *testing.T) {
	tab, _ := buildTable(t, 20000)
	id, _ := tab.ColumnIndex("ID")
	q := &core.Query{
		Table:       tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(id, "ID"), expr.Var("A1")),
	}
	p, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	// 1/3 of 20000 rows via unclustered fetches dwarfs a Tscan.
	if p.Strategy.Tactic != "tscan" {
		t.Fatalf("plan = %s, want tscan", p)
	}
}

func TestPrepareDefaultsPickIndexForEquality(t *testing.T) {
	tab, _ := buildTable(t, 20000)
	id, _ := tab.ColumnIndex("ID")
	q := &core.Query{
		Table:       tab,
		Restriction: expr.NewCmp(expr.EQ, expr.Col(id, "ID"), expr.Var("A1")),
		Projection:  []int{id},
	}
	p, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Strategy.Indexes) != 1 || p.Strategy.Indexes[0] != "ID_IX" {
		t.Fatalf("plan = %s, want ID_IX", p)
	}
	// Covering projection: Sscan.
	if p.Strategy.Tactic != "sscan" {
		t.Fatalf("plan tactic = %s, want sscan", p.Strategy.Tactic)
	}
}

func TestPrepareSniffingFreezesFromFirstBinding(t *testing.T) {
	tab, _ := buildTable(t, 20000)
	id, _ := tab.ColumnIndex("ID")
	q := &core.Query{
		Table:       tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(id, "ID"), expr.Var("A1")),
	}
	// Sniffed with a highly selective binding: picks the index.
	p, err := PrepareSniffing(q, expr.Bindings{"A1": expr.Int(19990)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy.Tactic != "fscan" {
		t.Fatalf("sniffed plan = %s, want fscan", p)
	}
	// Sniffed with a non-selective binding: picks Tscan.
	p2, err := PrepareSniffing(q, expr.Bindings{"A1": expr.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Strategy.Tactic != "tscan" {
		t.Fatalf("sniffed plan = %s, want tscan", p2)
	}
}

func TestFrozenPlanExecutesCorrectlyButExpensively(t *testing.T) {
	// The paper's instability story needs an unclustered index (AGE:
	// key order is unrelated to physical order) and a bounded cache, so
	// random fetches genuinely cost I/O.
	tab2, pool2 := buildBoundedTable(t, 20000, 128)
	age, _ := tab2.ColumnIndex("AGE")
	q := &core.Query{
		Table:       tab2,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Var("A1")),
	}
	// Sniffed with a selective binding: the planner freezes Fscan(AGE).
	p, err := PrepareSniffing(q, expr.Bindings{"A1": expr.Int(99)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy.Tactic != "fscan" {
		t.Fatalf("sniffed plan = %s, want Fscan(AGE_IX)", p)
	}
	// Run the frozen plan with the adversarial binding A1=0.
	q.Binds = expr.Bindings{"A1": expr.Int(0)}
	pool2.EvictAll()
	pool2.ResetStats()
	got := drainRows(t, replay(p, q))
	if len(got) != 20000 {
		t.Fatalf("frozen plan returned %d rows, want 20000", len(got))
	}
	frozenCost := pool2.Stats().IOCost()
	// Must be dramatically worse than a Tscan: random fetch per row.
	if frozenCost < 3*int64(tab2.Pages()) {
		t.Fatalf("frozen Fscan on adversarial binding cost %d, expected >> Tscan %d",
			frozenCost, tab2.Pages())
	}
}

// buildBoundedTable is buildTable with a bounded buffer pool, so random
// fetches have real cost.
func buildBoundedTable(t testing.TB, n, frames int) (*catalog.Table, *storage.BufferPool) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(4096), frames)
	cat := catalog.New(pool)
	tab, err := cat.CreateTable("T", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "AGE", Type: expr.TypeInt},
		{Name: "PAD", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("AGE_IX", "AGE"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		row := expr.Row{
			expr.Int(int64(i)),
			expr.Int(rng.Int63n(100)),
			expr.Str(strings.Repeat("x", 60)),
		}
		if _, err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab, pool
}

// pin builds the plan Prepare would for one tactic over one index.
func pin(tactic string, indexes ...string) *Plan {
	return &Plan{Strategy: &core.Plan{Tactic: tactic, Indexes: indexes}}
}

func TestExecuteSscanAndSorted(t *testing.T) {
	tab, _ := buildTable(t, 5000)
	id, _ := tab.ColumnIndex("ID")
	age, _ := tab.ColumnIndex("AGE")
	q := &core.Query{
		Table:       tab,
		Restriction: expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(100))),
		Projection:  []int{id},
	}
	ixID := tab.Indexes[0].Name
	got := drainRows(t, replay(pin("sscan", ixID), q))
	if len(got) != 100 {
		t.Fatalf("Sscan returned %d rows", len(got))
	}
	// ORDER BY AGE with an ID index: the replay must sort.
	q2 := &core.Query{
		Table:       tab,
		Restriction: expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(500))),
		OrderBy:     []int{age},
	}
	rows := drainRows(t, replay(pin("fscan", ixID), q2))
	if len(rows) != 500 {
		t.Fatalf("sorted Fscan returned %d rows", len(rows))
	}
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i][age].I < rows[j][age].I }) {
		t.Fatal("pinned fscan did not sort")
	}
}

func TestExecuteEmptyRangeAndErrors(t *testing.T) {
	tab, _ := buildTable(t, 100)
	id, _ := tab.ColumnIndex("ID")
	q := &core.Query{
		Table:       tab,
		Restriction: expr.NewCmp(expr.EQ, expr.Col(id, "ID"), expr.Lit(expr.Int(-5))),
	}
	got := drainRows(t, replay(pin("fscan", tab.Indexes[0].Name), q))
	if len(got) != 0 {
		t.Fatalf("empty range returned %d rows", len(got))
	}
	if _, _, err := replay(pin("sscan"), q).Next(); err == nil {
		t.Fatal("Sscan without index accepted")
	}
	if _, _, err := replay(pin("tscan"), &core.Query{}).Next(); err == nil {
		t.Fatal("nil table accepted")
	}
}

func TestPrepareValidation(t *testing.T) {
	if _, err := Prepare(&core.Query{}); err == nil {
		t.Fatal("nil table accepted")
	}
	tab, _ := buildTable(t, 10)
	bad := &expr.Cmp{Op: expr.EQ, L: expr.Col(0, "ID"), R: nil}
	if _, err := Prepare(&core.Query{Table: tab, Restriction: bad}); err == nil {
		t.Fatal("invalid restriction accepted")
	}
}
