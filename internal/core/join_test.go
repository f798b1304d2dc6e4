package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/feedback"
	"rdbdyn/internal/storage"
)

// joinFixture builds a three-table star: CUST (ID, SEG, NAME),
// ORD (ID, CUST, ITEM, QTY, PAD), ITEM (ID, KIND). ORD.CUST references
// CUST.ID, ORD.ITEM references ITEM.ID. The PAD column fattens order
// rows so the orders heap spans many pages and random fetches hurt.
type joinFixture struct {
	cat              *catalog.Catalog
	pool             *storage.BufferPool
	cust, ord, item  *catalog.Table
	custRows         []expr.Row
	ordRows          []expr.Row
	itemRows         []expr.Row
	nCust, nOrd, nIt int
}

// newJoinFixture builds the star with a bounded pool of `frames`
// frames (0 = unbounded). Same seed -> byte-identical twin databases.
func newJoinFixture(t testing.TB, nCust, nOrd, nItem, frames int, nullCusts bool) *joinFixture {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(4096), frames)
	cat := catalog.New(pool)
	f := &joinFixture{cat: cat, pool: pool, nCust: nCust, nOrd: nOrd, nIt: nItem}
	var err error
	f.cust, err = cat.CreateTable("CUST", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "SEG", Type: expr.TypeInt},
		{Name: "NAME", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ord, err = cat.CreateTable("ORD", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "CUST", Type: expr.TypeInt},
		{Name: "ITEM", Type: expr.TypeInt},
		{Name: "QTY", Type: expr.TypeInt},
		{Name: "PAD", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.item, err = cat.CreateTable("ITEM", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "KIND", Type: expr.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][3]string{
		{"CUST", "CUST_ID_IX", "ID"},
		{"ORD", "ORD_CUST_IX", "CUST"},
		{"ORD", "ORD_QTY_IX", "QTY"},
		{"ITEM", "ITEM_ID_IX", "ID"},
	} {
		tab, err := cat.Table(ix[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.CreateIndex(ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	pad := strings.Repeat("x", 400)
	for i := 0; i < nCust; i++ {
		// SEG skew: 60% of customers are segment 0.
		seg := int64(rng.Intn(5))
		if rng.Intn(10) < 6 {
			seg = 0
		}
		row := expr.Row{expr.Int(int64(i)), expr.Int(seg), expr.Str(fmt.Sprintf("c-%04d", i))}
		if _, err := f.cust.Insert(row); err != nil {
			t.Fatal(err)
		}
		f.custRows = append(f.custRows, row)
	}
	for i := 0; i < nOrd; i++ {
		cust := expr.Int(rng.Int63n(int64(nCust)))
		if nullCusts && rng.Intn(20) == 0 {
			cust = expr.Null()
		}
		row := expr.Row{
			expr.Int(int64(i)), cust,
			expr.Int(rng.Int63n(int64(nItem))),
			expr.Int(1 + rng.Int63n(9)),
			expr.Str(pad),
		}
		if _, err := f.ord.Insert(row); err != nil {
			t.Fatal(err)
		}
		f.ordRows = append(f.ordRows, row)
	}
	for i := 0; i < nItem; i++ {
		row := expr.Row{expr.Int(int64(i)), expr.Int(rng.Int63n(4))}
		if _, err := f.item.Insert(row); err != nil {
			t.Fatal(err)
		}
		f.itemRows = append(f.itemRows, row)
	}
	return f
}

// custOrdQuery joins CUST and ORD on CUST.ID = ORD.CUST with an
// optional local restriction on CUST.
func (f *joinFixture) custOrdQuery(custLocal expr.Expr) *JoinQuery {
	return &JoinQuery{
		Tables: []*catalog.Table{f.cust, f.ord},
		Local:  []expr.Expr{custLocal, nil},
		Preds:  []JoinPred{{LT: 0, LC: 0, RT: 1, RC: 1}},
	}
}

// starQuery joins all three tables: CUST.ID = ORD.CUST and
// ORD.ITEM = ITEM.ID, with optional local restrictions.
func (f *joinFixture) starQuery(custLocal, ordLocal expr.Expr) *JoinQuery {
	return &JoinQuery{
		Tables: []*catalog.Table{f.cust, f.ord, f.item},
		Local:  []expr.Expr{custLocal, ordLocal, nil},
		Preds: []JoinPred{
			{LT: 0, LC: 0, RT: 1, RC: 1},
			{LT: 1, LC: 2, RT: 2, RC: 0},
		},
	}
}

// oracleJoin computes the expected join result with an independent
// hash-join implementation over the in-memory row copies: tables fold
// in declaration order, each step probing a hash table on the first
// applicable equi-join column pair (remaining predicates and the
// residual check afterwards).
func oracleJoin(t testing.TB, jq *JoinQuery, tabRows [][]expr.Row) []expr.Row {
	t.Helper()
	offs := jq.Offsets()
	width := jq.Width()
	// Filter each table by its local restriction.
	filtered := make([][]expr.Row, len(tabRows))
	for i, rows := range tabRows {
		for _, row := range rows {
			ok, err := expr.EvalPred(jq.Local[i], row, jq.Binds)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				filtered[i] = append(filtered[i], row)
			}
		}
	}
	acc := []expr.Row{make(expr.Row, width)}
	bound := make([]bool, len(tabRows))
	first := true
	for ti, rows := range filtered {
		// Predicates connecting table ti to the already-bound tables,
		// as (flat outer position, local inner column) pairs.
		var pairs [][2]int
		for _, p := range jq.Preds {
			if p.LT == ti && bound[p.RT] {
				pairs = append(pairs, [2]int{offs[p.RT] + p.RC, p.LC})
			} else if p.RT == ti && bound[p.LT] {
				pairs = append(pairs, [2]int{offs[p.LT] + p.LC, p.RC})
			}
		}
		var next []expr.Row
		if len(pairs) > 0 && !first {
			// Hash on the first pair's inner column.
			ht := map[string][]expr.Row{}
			for _, row := range rows {
				v := row[pairs[0][1]]
				if v.IsNull() {
					continue
				}
				ht[v.String()] = append(ht[v.String()], row)
			}
			for _, a := range acc {
				ov := a[pairs[0][0]]
				if ov.IsNull() {
					continue
				}
				for _, row := range ht[ov.String()] {
					match := true
					for _, pr := range pairs[1:] {
						x, y := a[pr[0]], row[pr[1]]
						if x.IsNull() || y.IsNull() || expr.Compare(x, y) != 0 {
							match = false
							break
						}
					}
					if match {
						fr := make(expr.Row, width)
						copy(fr, a)
						copy(fr[offs[ti]:], row)
						next = append(next, fr)
					}
				}
			}
		} else {
			// First table, or a cross step.
			for _, a := range acc {
				for _, row := range rows {
					fr := make(expr.Row, width)
					copy(fr, a)
					copy(fr[offs[ti]:], row)
					next = append(next, fr)
				}
			}
		}
		acc = next
		bound[ti] = true
		first = false
	}
	var out []expr.Row
	for _, a := range acc {
		ok, err := expr.EvalPred(jq.Residual, a, jq.Binds)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, projectRow(a, jq.Projection))
		}
	}
	return out
}

// multiset canonicalizes rows for order-insensitive comparison.
func multiset(rows []expr.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	sort.Strings(out)
	return out
}

// runJoinOn is RunJoin for a dynamic run made to start on plan rather
// than the planner's choice: it forces an operator and, unlike a fixed
// plan, still streams (the unrestricted drivers it is used with are exact).
func runJoinOn(o *Optimizer, ec *ExecCtx, jq *JoinQuery, plan *JoinPlan) Rows {
	jr, err := o.newJoinRun(ec, jq)
	if err == nil {
		jr.begin(plan, true)
	}
	return o.deliver(ec, jr, err)
}

func drainJoin(t testing.TB, rows Rows) ([]expr.Row, RetrievalStats) {
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
		out = append(out, row.Clone())
	}
	st := rows.Stats()
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return out, st
}

func assertSameRows(t *testing.T, label string, got, want []expr.Row) {
	t.Helper()
	g, w := multiset(got), multiset(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d mismatch:\n got  %s\n want %s", label, i, g[i], w[i])
		}
	}
}

// TestJoinOperatorEquivalence forces each stage operator in turn on the
// same CUST-ORD join and checks every one against the hash-join oracle.
// Duplicate keys (several orders per customer) and NULL join keys are
// both present in the fixture.
func TestJoinOperatorEquivalence(t *testing.T) {
	// Bounded pool so fetches actually miss and the I/O assertion bites.
	f := newJoinFixture(t, 100, 600, 20, 64, true)
	// Local restriction on ORD (QTY >= 8, sargable via ORD_QTY_IX) so
	// ridx has a restriction bitmap to intersect.
	ordLocal := expr.NewCmp(expr.GE, expr.Col(3, "QTY"), expr.Lit(expr.Int(8)))
	jq := f.custOrdQuery(nil)
	jq.Local[1] = ordLocal
	want := oracleJoin(t, jq, [][]expr.Row{f.custRows, f.ordRows})

	for _, op := range []struct {
		name  string
		index string
	}{
		{JoinOpNL, ""},
		{JoinOpINL, "ORD_CUST_IX"},
		{JoinOpRIDX, "ORD_CUST_IX"},
		{JoinOpHJ, ""},           // heap build
		{JoinOpHJ, "ORD_QTY_IX"}, // index-assisted build via the QTY restriction
	} {
		t.Run(op.name+"/"+op.index, func(t *testing.T) {
			o := NewOptimizer(Config{})
			plan := &JoinPlan{Stages: []JoinStagePlan{
				{Table: 0, Operator: "tscan", EstRows: float64(f.nCust)},
				{Table: 1, Operator: op.name, Index: op.index, EstRows: 1},
			}}
			q := f.custOrdQuery(nil)
			q.Local[1] = ordLocal
			got, st := drainJoin(t, o.RunJoin(nil, q, plan))
			assertSameRows(t, op.name, got, want)
			if len(st.JoinStages) != 2 {
				t.Fatalf("want 2 join stages, got %d", len(st.JoinStages))
			}
			if st.JoinStages[1].Operator != op.name {
				t.Fatalf("stage 1 ran %s, want %s", st.JoinStages[1].Operator, op.name)
			}
			if st.JoinStages[1].Reoptimized {
				t.Fatalf("fixed plan must not re-optimize")
			}
			if st.IO.IOCost() <= 0 {
				t.Fatalf("join attributed no I/O")
			}
		})
	}
}

// TestJoinDynamicEquivalence runs the fully dynamic path (planning,
// competition, possible re-optimization) against the oracle on the
// three-table star, with and without local restrictions.
func TestJoinDynamicEquivalence(t *testing.T) {
	f := newJoinFixture(t, 100, 600, 20, 0, true)
	cases := []struct {
		name     string
		jq       func() *JoinQuery
		tabs     [][]expr.Row
		binds    expr.Bindings
		residual bool
	}{
		{
			name: "two-table no restriction",
			jq:   func() *JoinQuery { return f.custOrdQuery(nil) },
			tabs: [][]expr.Row{f.custRows, f.ordRows},
		},
		{
			name: "star with local restrictions",
			jq: func() *JoinQuery {
				return f.starQuery(
					expr.NewCmp(expr.EQ, expr.Col(1, "SEG"), expr.Lit(expr.Int(0))),
					expr.NewCmp(expr.GE, expr.Col(3, "QTY"), expr.Lit(expr.Int(5))),
				)
			},
			tabs: [][]expr.Row{f.custRows, f.ordRows, f.itemRows},
		},
		{
			name: "star with residual and projection",
			jq: func() *JoinQuery {
				jq := f.starQuery(nil, nil)
				// CUST.SEG > ITEM.KIND spans tables without being an
				// equi-join: flat positions 1 (CUST.SEG) and 9 (ITEM.KIND).
				jq.Residual = expr.NewCmp(expr.GT, expr.Col(1, "SEG"), expr.Col(9, "KIND"))
				jq.Projection = []int{2, 6, 9} // CUST.NAME, ORD.QTY, ITEM.KIND
				return jq
			},
			tabs: [][]expr.Row{f.custRows, f.ordRows, f.itemRows},
		},
		{
			name: "empty range",
			jq: func() *JoinQuery {
				return f.custOrdQuery(
					expr.NewCmp(expr.EQ, expr.Col(0, "ID"), expr.Lit(expr.Int(-5))))
			},
			tabs: [][]expr.Row{f.custRows, f.ordRows},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOptimizer(Config{})
			want := oracleJoin(t, tc.jq(), tc.tabs)
			got, _ := drainJoin(t, o.RunJoin(nil, tc.jq(), nil))
			assertSameRows(t, tc.name, got, want)
		})
	}
}

// TestJoinOrderAndLimit checks ORDER BY and LIMIT over the join result.
func TestJoinOrderAndLimit(t *testing.T) {
	f := newJoinFixture(t, 50, 200, 10, 0, false)
	o := NewOptimizer(Config{})
	jq := f.custOrdQuery(nil)
	jq.OrderBy = []int{3} // ORD.ID (flat: 3 CUST cols... CUST has 3 cols, so ORD.ID = 3)
	jq.Limit = 7
	got, st := drainJoin(t, o.RunJoin(nil, jq, nil))
	if len(got) != 7 {
		t.Fatalf("LIMIT 7 delivered %d rows", len(got))
	}
	for i := 1; i < len(got); i++ {
		if expr.Compare(got[i-1][3], got[i][3]) > 0 {
			t.Fatalf("rows not ordered by ORD.ID at %d", i)
		}
	}
	if st.RowsDelivered != 7 {
		t.Fatalf("stats say %d rows delivered, want 7", st.RowsDelivered)
	}
}

// TestJoinReoptimizedBeatsStatic is the acceptance scenario: feedback
// poisoned to grossly underestimate the driver's filtered cardinality
// makes the static plan choose index-nested-loop probing for the big
// orders table. The dynamic run sees the real driver cardinality at the
// first stage boundary, emits join-reoptimized once, switches the
// orders stage to a hash join, and finishes with less attributed I/O
// than the static plan on a twin database. (engine's TestJoinPinnedIO
// pins the page counts of the same scenario on its own fixture.)
func TestJoinReoptimizedBeatsStatic(t *testing.T) {
	const frames = 128
	poison := func() *feedback.Registry {
		fb := feedback.New(0)
		// One observation adopts the ratio outright; 10 vs 160 clamps
		// to the 1/16 floor. The driver's unsargable SEG restriction
		// estimates through corr("").
		fb.ObserveCardinality("CUST", "", 160, 10)
		return fb
	}
	seg0 := func() expr.Expr {
		return expr.NewCmp(expr.EQ, expr.Col(1, "SEG"), expr.Lit(expr.Int(0)))
	}

	// Static leg: plan with the poisoned estimates, then replay the
	// frozen plan with re-optimization off.
	fStatic := newJoinFixture(t, 1000, 4000, 50, frames, false)
	oStatic := NewOptimizer(Config{Feedback: poison()})
	jqS := fStatic.starQuery(seg0(), nil)
	plan, err := oStatic.PlanJoin(nil, jqS)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Stages[1].Operator; got != JoinOpINL {
		t.Fatalf("static plan chose %s for the orders stage, want %s (plan %s)",
			got, JoinOpINL, plan.Describe(jqS))
	}
	staticRows, stS := drainJoin(t, oStatic.RunJoin(nil, fStatic.starQuery(seg0(), nil), plan))

	// Dynamic leg on a twin database: same data, same poisoned
	// estimates, re-optimization on.
	fDyn := newJoinFixture(t, 1000, 4000, 50, frames, false)
	oDyn := NewOptimizer(Config{Feedback: poison()})
	dynRows, stD := drainJoin(t, oDyn.RunJoin(nil, fDyn.starQuery(seg0(), nil), nil))

	assertSameRows(t, "static vs dynamic", dynRows, staticRows)

	reopts := 0
	for _, ev := range stD.Events {
		if ev.Kind == EvJoinReoptimized {
			reopts++
		}
	}
	if reopts != 1 || !strings.Contains(stD.Strategy, "ORD:"+JoinOpHJ) {
		t.Fatalf("dynamic run emitted %s %d times and ran %s, want once into an hj orders stage; events: %v",
			EvJoinReoptimized, reopts, stD.Strategy, stD.Trace())
	}
	ioS, ioD := stS.IO.IOCost(), stD.IO.IOCost()
	if ioD >= ioS {
		t.Fatalf("dynamic I/O %d not below static %d (dynamic %s, static %s)",
			ioD, ioS, stD.Strategy, stS.Strategy)
	}
	t.Logf("static %s: %d I/O; dynamic %s: %d I/O", stS.Strategy, ioS, stD.Strategy, ioD)
}

// TestJoinDeterminism runs the same dynamic join on twin databases and
// expects identical strategies, stage stats, and attributed I/O —
// re-optimization is driven only by deterministic estimates and counts.
func TestJoinDeterminism(t *testing.T) {
	run := func() ([]expr.Row, RetrievalStats) {
		f := newJoinFixture(t, 400, 1500, 30, 128, true)
		o := NewOptimizer(Config{})
		jq := f.starQuery(
			expr.NewCmp(expr.EQ, expr.Col(1, "SEG"), expr.Lit(expr.Int(0))), nil)
		return drainJoin(t, o.RunJoin(nil, jq, nil))
	}
	rows1, st1 := run()
	rows2, st2 := run()
	assertSameRows(t, "twin rows", rows1, rows2)
	if st1.Strategy != st2.Strategy {
		t.Fatalf("strategies differ: %q vs %q", st1.Strategy, st2.Strategy)
	}
	if st1.IO != st2.IO {
		t.Fatalf("attributed I/O differs: %+v vs %+v", st1.IO, st2.IO)
	}
	if len(st1.JoinStages) != len(st2.JoinStages) {
		t.Fatalf("stage counts differ: %d vs %d", len(st1.JoinStages), len(st2.JoinStages))
	}
	for i := range st1.JoinStages {
		if st1.JoinStages[i] != st2.JoinStages[i] {
			t.Fatalf("stage %d differs: %+v vs %+v", i, st1.JoinStages[i], st2.JoinStages[i])
		}
	}
}

// TestJoinFeedsCardinalityFeedback checks the per-stage actuals flow
// into the feedback registry after a dynamic join.
func TestJoinFeedsCardinalityFeedback(t *testing.T) {
	f := newJoinFixture(t, 100, 400, 20, 0, false)
	fb := feedback.New(0)
	o := NewOptimizer(Config{Feedback: fb})
	jq := f.starQuery(
		expr.NewCmp(expr.EQ, expr.Col(1, "SEG"), expr.Lit(expr.Int(0))), nil)
	_, st := drainJoin(t, o.RunJoin(nil, jq, nil))
	if len(st.JoinStages) != 3 {
		t.Fatalf("want 3 stages, got %d", len(st.JoinStages))
	}
	if len(fb.Snapshot()) == 0 {
		t.Fatalf("dynamic join recorded no feedback corrections")
	}
}

// TestCapturePlanRejectsJoin is the regression guard: multi-table
// retrievals must never freeze into the plan cache, and every dynamic
// join announces that with a plan-capture-rejected event.
func TestCapturePlanRejectsJoin(t *testing.T) {
	f := newJoinFixture(t, 60, 200, 10, 0, false)
	o := NewOptimizer(Config{})
	_, st := drainJoin(t, o.RunJoin(nil, f.custOrdQuery(nil), nil))
	if plan, ok := CapturePlan(&st); ok {
		t.Fatalf("CapturePlan froze a join retrieval as %s", plan)
	}
	var rejected bool
	for _, ev := range st.Events {
		if ev.Kind == EvPlanCaptureRejected {
			rejected = true
		}
	}
	if !rejected {
		t.Fatalf("join run did not emit %s", EvPlanCaptureRejected)
	}
	if got := o.Metrics().Snapshot(); got.PlanCaptureRejected == 0 || got.JoinQueries == 0 {
		t.Fatalf("metrics missed the join: %+v", got)
	}
}

// TestHashJoinEquivalence quickchecks the forced hash-join operator
// against the independent oracle across the hostile corners: NULL join
// keys on both sides, duplicate keys, an empty build side, a restricted
// driver, and a bounded buffer pool.
func TestHashJoinEquivalence(t *testing.T) {
	f := newJoinFixture(t, 80, 500, 20, 48, true)
	cases := []struct {
		name      string
		custLocal expr.Expr
		ordLocal  expr.Expr
		index     string
	}{
		{"plain", nil, nil, ""},
		{"restricted-driver", expr.NewCmp(expr.EQ, expr.Col(1, "SEG"), expr.Lit(expr.Int(0))), nil, ""},
		{"index-build", nil, expr.NewCmp(expr.GE, expr.Col(3, "QTY"), expr.Lit(expr.Int(8))), "ORD_QTY_IX"},
		{"empty-build", nil, expr.NewCmp(expr.GE, expr.Col(3, "QTY"), expr.Lit(expr.Int(100))), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jq := f.custOrdQuery(tc.custLocal)
			jq.Local[1] = tc.ordLocal
			want := oracleJoin(t, jq, [][]expr.Row{f.custRows, f.ordRows})
			o := NewOptimizer(Config{})
			plan := &JoinPlan{Stages: []JoinStagePlan{
				{Table: 0, Operator: "tscan", EstRows: float64(f.nCust)},
				{Table: 1, Operator: JoinOpHJ, Index: tc.index, EstRows: 1},
			}}
			got, st := drainJoin(t, o.RunJoin(nil, jq, plan))
			assertSameRows(t, tc.name, got, want)
			if len(want) > 0 && st.JoinStages[1].Operator != JoinOpHJ {
				t.Fatalf("stage 1 ran %s, want hj", st.JoinStages[1].Operator)
			}
		})
	}
}

// TestJoinProbeWidthInvariant: a join stage has one width, so the
// worker budget must not change what a probe stage does. A forced inl or
// ridx stage delivers the same row sequence, and books the same I/O and
// row count to every stage, at Parallelism 0 as at 4 under the adaptive
// policy; an overpriced probe falls back to hj mid-stage at both,
// keeping what the probes already produced; and no width decision names
// anything but the two scans that partition, Tscan and Fin. (The
// fallback runs on a 32-frame pool, where a streamed table access's
// read-ahead moves which pages hit, so there the I/O may differ.)
func TestJoinProbeWidthInvariant(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"sequential", Config{}},
		{"adaptive-4", Config{Parallelism: 4, AdaptiveParallelism: true}},
	}
	same := func(t *testing.T, rows [2][]expr.Row, sts [2]RetrievalStats, sameIO bool) {
		t.Helper()
		got, want := rows[1], rows[0]
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%d rows vs %d (want equal and non-zero)", len(got), len(want))
		}
		for i := range got {
			if rowKey(got[i]) != rowKey(want[i]) {
				t.Fatalf("row %d diverged:\n got  %s\n want %s", i, rowKey(got[i]), rowKey(want[i]))
			}
		}
		for i := range sts[0].JoinStages {
			s, p := sts[0].JoinStages[i], sts[1].JoinStages[i]
			if s.Operator != p.Operator || sameIO && s.IO != p.IO || s.ActualRows != p.ActualRows {
				t.Fatalf("stage %d: sequential %s io=%d rows=%d, adaptive %s io=%d rows=%d",
					i, s.Operator, s.IO, s.ActualRows, p.Operator, p.IO, p.ActualRows)
			}
		}
		for i, c := range configs {
			onlyMorselWidths(t, c.name, sts[i])
		}
	}
	for _, op := range []string{JoinOpINL, JoinOpRIDX} {
		t.Run(op+"/forced", func(t *testing.T) {
			// Unbounded pool, evicted before each run: every distinct page
			// is read exactly once whatever the worker interleaving.
			f := newJoinFixture(t, 100, 600, 20, 0, true)
			var rows [2][]expr.Row
			var sts [2]RetrievalStats
			for i, c := range configs {
				f.pool.EvictAll()
				jq := f.custOrdQuery(nil)
				jq.Local[1] = expr.NewCmp(expr.GE, expr.Col(3, "QTY"), expr.Lit(expr.Int(8)))
				plan := &JoinPlan{Stages: []JoinStagePlan{
					{Table: 0, Operator: "tscan", EstRows: float64(f.nCust)},
					{Table: 1, Operator: op, Index: "ORD_CUST_IX", EstRows: 1},
				}}
				rows[i], sts[i] = drainJoin(t, NewOptimizer(c.cfg).RunJoin(nil, jq, plan))
			}
			same(t, rows, sts, true)
		})

		t.Run(op+"/fallback", func(t *testing.T) {
			// A 32-frame pool keeps every probe missing, so the measured
			// per-probe cost projects far past one scan of ORD.
			f := newJoinFixture(t, 1000, 4000, 50, 32, false)
			var rows [2][]expr.Row
			var sts [2]RetrievalStats
			for i, c := range configs {
				f.pool.EvictAll()
				jq := f.custOrdQuery(nil)
				jq.Local[1] = expr.NewCmp(expr.GE, expr.Col(3, "QTY"), expr.Lit(expr.Int(2)))
				rows[i], sts[i] = drainJoin(t, runJoinOn(NewOptimizer(c.cfg), nil, jq, &JoinPlan{Stages: []JoinStagePlan{
					{Table: 0, Operator: "tscan", EstRows: float64(f.nCust)},
					{Table: 1, Operator: op, Index: "ORD_CUST_IX"},
				}}))
				last := sts[i].JoinStages[len(sts[i].JoinStages)-1]
				if last.Operator != JoinOpHJ || !last.Reoptimized || !hasEvent(sts[i], EvJoinReoptimized, "") {
					t.Fatalf("%s: %s probe did not fall back to hj mid-stage: %s; trace: %v",
						c.name, op, fmt.Sprint(last), sts[i].Trace())
				}
			}
			same(t, rows, sts, false)
		})
	}
}

// TestHashJoinDynamicPick joins on a column with no probe index
// (ORD.ITEM): the per-stage competition must pick hj over the quadratic
// nested loop, deliver the oracle's rows, and count the win.
func TestHashJoinDynamicPick(t *testing.T) {
	f := newJoinFixture(t, 100, 600, 20, 64, false)
	jq := &JoinQuery{
		Tables: []*catalog.Table{f.cust, f.ord},
		Local:  []expr.Expr{nil, nil},
		Preds:  []JoinPred{{LT: 0, LC: 0, RT: 1, RC: 2}}, // CUST.ID = ORD.ITEM, unindexed
	}
	want := oracleJoin(t, jq, [][]expr.Row{f.custRows, f.ordRows})
	o := NewOptimizer(Config{})
	got, st := drainJoin(t, o.RunJoin(nil, jq, nil))
	assertSameRows(t, "dynamic", got, want)
	var ranHJ bool
	for _, sg := range st.JoinStages {
		if sg.Operator == JoinOpHJ {
			ranHJ = true
		}
	}
	if !ranHJ {
		t.Fatalf("competition did not pick hj: %s", st.Strategy)
	}
	if wins := o.Metrics().Snapshot().JoinOperatorWins[JoinOpHJ]; wins == 0 {
		t.Fatalf("hj win not counted: %+v", o.Metrics().Snapshot().JoinOperatorWins)
	}
}

// isSortedBy reports whether rows are ordered by the given projected
// column (NULLs first, mirroring sortRows).
func isSortedBy(rows []expr.Row, col int, desc bool) bool {
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1][col], rows[i][col]
		c := 0
		switch {
		case a.IsNull() && b.IsNull():
		case a.IsNull():
			c = -1
		case b.IsNull():
			c = 1
		default:
			c = expr.Compare(a, b)
		}
		if desc {
			c = -c
		}
		if c > 0 {
			return false
		}
	}
	return true
}

// sortAvoidFixture builds a two-table schema tuned so the cheapest plan
// is naturally order-preserving: both tables are page-fat (the driver's
// restriction-index scan genuinely beats its sequential scan, and the
// probe side's heap is expensive enough that hj loses to inl for a
// small driver range). CUST (ID, SEG, PAD) with CUST_ID_IX; ORD (ID,
// CUST, PAD) with ORD_CUST_IX.
func sortAvoidFixture(t testing.TB) (cust, ord *catalog.Table) {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(4096), 64))
	var err error
	cust, err = cat.CreateTable("CUST", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "SEG", Type: expr.TypeInt},
		{Name: "PAD", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	ord, err = cat.CreateTable("ORD", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "CUST", Type: expr.TypeInt},
		{Name: "PAD", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cust.CreateIndex("CUST_ID_IX", "ID"); err != nil {
		t.Fatal(err)
	}
	if _, err := ord.CreateIndex("ORD_CUST_IX", "CUST"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	pad := strings.Repeat("p", 400)
	for i := 0; i < 300; i++ {
		if _, err := cust.Insert(expr.Row{expr.Int(int64(i)), expr.Int(int64(i % 5)), expr.Str(pad)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 900; i++ {
		if _, err := ord.Insert(expr.Row{expr.Int(int64(i)), expr.Int(rng.Int63n(300)), expr.Str(pad)}); err != nil {
			t.Fatal(err)
		}
	}
	return cust, ord
}

// TestSortAvoidedOrderEquivalence runs an ORDER BY join whose cheapest
// plan is order-preserving (restricted driver on the ordering index,
// inl probe). The run must skip the materialized sort and still deliver
// the oracle's rows in the oracle's key order, ascending and descending.
func TestSortAvoidedOrderEquivalence(t *testing.T) {
	cust, ord := sortAvoidFixture(t)
	tabs := [][]expr.Row{tableRows(t, cust), tableRows(t, ord)}
	for _, desc := range []bool{false, true} {
		name := "asc"
		if desc {
			name = "desc"
		}
		t.Run(name, func(t *testing.T) {
			jq := &JoinQuery{
				Tables:  []*catalog.Table{cust, ord},
				Local:   []expr.Expr{expr.NewCmp(expr.LT, expr.Col(0, "ID"), expr.Lit(expr.Int(12))), nil},
				Preds:   []JoinPred{{LT: 0, LC: 0, RT: 1, RC: 1}},
				OrderBy: []int{0}, OrderDesc: desc, // CUST.ID, delivered by CUST_ID_IX
			}
			want := oracleJoin(t, jq, tabs)
			sortRows(want, jq.OrderBy, desc)
			got, st := drainJoin(t, NewOptimizer(Config{}).RunJoin(nil, jq, nil))
			if !st.SortAvoided {
				t.Fatalf("run sorted anyway: %s", st.Strategy)
			}
			if len(got) == 0 {
				t.Fatal("no rows")
			}
			assertSameRows(t, name, got, want)
			for i := range got {
				if expr.Compare(got[i][0], want[i][0]) != 0 {
					t.Fatalf("row %d: sort key %v, want %v", i, got[i][0], want[i][0])
				}
			}
			var avoided bool
			for _, ev := range st.Events {
				if ev.Kind == EvJoinSortAvoided {
					avoided = true
				}
			}
			if !avoided {
				t.Fatalf("run did not emit %s", EvJoinSortAvoided)
			}
		})
	}
}

// TestSortNotAvoidedStillOrdered is the negative guard: when the
// cheapest plan routes through an order-destroying operator (hj) and
// the order-preserving alternative is too expensive, the final sort
// must still run and deliver correct order.
func TestSortNotAvoidedStillOrdered(t *testing.T) {
	f := newJoinFixture(t, 100, 600, 20, 64, false)
	jq := f.custOrdQuery(nil) // unrestricted: hj beats the 100-row inl probe chain
	jq.OrderBy = []int{0}
	got, st := drainJoin(t, NewOptimizer(Config{}).RunJoin(nil, jq, nil))
	if st.SortAvoided {
		t.Fatalf("sort reported avoided on an order-destroying plan: %s", st.Strategy)
	}
	if !isSortedBy(got, 0, false) {
		t.Fatalf("output not sorted")
	}
	want := oracleJoin(t, jq, [][]expr.Row{f.custRows, f.ordRows})
	assertSameRows(t, "sorted", got, want)
}

// TestCapturePlanRejectsHashJoinStage pins the explicit hj guard in
// CapturePlan: a stats record carrying an hj stage must never freeze,
// independent of the blanket join rejection.
func TestCapturePlanRejectsHashJoinStage(t *testing.T) {
	st := &RetrievalStats{
		Tactic:     "sorted", // not the join tactic: only the hj stage guard can reject
		JoinStages: []JoinStageStats{{Table: "ORD", Operator: JoinOpHJ}},
	}
	if plan, ok := CapturePlan(st); ok {
		t.Fatalf("CapturePlan froze an hj retrieval as %s", plan)
	}
}

// TestJoinValidate exercises the structural checks.
func TestJoinValidate(t *testing.T) {
	f := newJoinFixture(t, 10, 20, 5, 0, false)
	o := NewOptimizer(Config{})
	bad := []*JoinQuery{
		{Tables: []*catalog.Table{f.cust}, Local: []expr.Expr{nil}},
		{Tables: []*catalog.Table{f.cust, f.ord}, Local: []expr.Expr{nil}},
		{Tables: []*catalog.Table{f.cust, f.ord}, Local: []expr.Expr{nil, nil},
			Preds: []JoinPred{{LT: 0, LC: 9, RT: 1, RC: 0}}},
	}
	for i, jq := range bad {
		rows := o.RunJoin(nil, jq, nil)
		if _, _, err := rows.Next(); err == nil {
			t.Fatalf("case %d: invalid join query executed without error", i)
		}
		rows.Close()
	}
}

// tableRows reads a table's rows back through a plain retrieval, for the
// oracle.
func tableRows(t testing.TB, tab *catalog.Table) []expr.Row {
	t.Helper()
	rows, _ := drainJoin(t, NewOptimizer(Config{}).Run(&Query{Table: tab}))
	return rows
}

// TestJoinPipelineEquivalence runs every query of this file's oracle
// suite through the pull pipeline three ways — dynamically, as the fixed
// plan PlanJoin freezes, and dynamically at adaptive width 2 — and holds
// each to the oracle: the same row multiset, and under ORDER BY the same
// sequence of sort keys (the same rows exactly where a LIMIT cuts a
// unique key).
func TestJoinPipelineEquivalence(t *testing.T) {
	f := newJoinFixture(t, 100, 600, 20, 64, true)
	sCust, sOrd := sortAvoidFixture(t)
	qtyGE := func(v int64) expr.Expr { return expr.NewCmp(expr.GE, expr.Col(3, "QTY"), expr.Lit(expr.Int(v))) }
	seg0 := expr.NewCmp(expr.EQ, expr.Col(1, "SEG"), expr.Lit(expr.Int(0)))
	two := [][]expr.Row{f.custRows, f.ordRows}
	star := [][]expr.Row{f.custRows, f.ordRows, f.itemRows}
	sortAvoid := [][]expr.Row{tableRows(t, sCust), tableRows(t, sOrd)}
	with := func(jq *JoinQuery, edit func(*JoinQuery)) *JoinQuery { edit(jq); return jq }
	type joinCase struct {
		name string
		jq   func() *JoinQuery
		tabs [][]expr.Row
	}
	cases := []joinCase{
		{"restricted inner", func() *JoinQuery {
			return with(f.custOrdQuery(nil), func(jq *JoinQuery) { jq.Local[1] = qtyGE(8) })
		}, two},
		{"two-table no restriction", func() *JoinQuery { return f.custOrdQuery(nil) }, two},
		{"restricted driver", func() *JoinQuery { return f.custOrdQuery(seg0) }, two},
		{"star with local restrictions", func() *JoinQuery { return f.starQuery(seg0, qtyGE(5)) }, star},
		{"star with residual and projection", func() *JoinQuery {
			return with(f.starQuery(nil, nil), func(jq *JoinQuery) {
				jq.Residual = expr.NewCmp(expr.GT, expr.Col(1, "SEG"), expr.Col(9, "KIND"))
				jq.Projection = []int{2, 6, 9}
			})
		}, star},
		{"empty range", func() *JoinQuery {
			return f.custOrdQuery(expr.NewCmp(expr.EQ, expr.Col(0, "ID"), expr.Lit(expr.Int(-5))))
		}, two},
		{"empty build side", func() *JoinQuery {
			return with(f.custOrdQuery(nil), func(jq *JoinQuery) { jq.Local[1] = qtyGE(100) })
		}, two},
		{"unindexed equi-key", func() *JoinQuery {
			return &JoinQuery{Tables: []*catalog.Table{f.cust, f.ord}, Local: []expr.Expr{nil, nil},
				Preds: []JoinPred{{LT: 0, LC: 0, RT: 1, RC: 2}}}
		}, two},
		{"order by unique key, limit", func() *JoinQuery {
			return with(f.custOrdQuery(nil), func(jq *JoinQuery) { jq.OrderBy, jq.Limit = []int{3}, 7 })
		}, two},
		{"order by, sorted", func() *JoinQuery {
			return with(f.custOrdQuery(nil), func(jq *JoinQuery) { jq.OrderBy = []int{0} })
		}, two},
		{"order by, projected away", func() *JoinQuery {
			return with(f.custOrdQuery(seg0), func(jq *JoinQuery) { jq.OrderBy, jq.OrderDesc, jq.Projection = []int{0}, true, []int{2, 6} })
		}, two},
	}
	for _, desc := range []bool{false, true} {
		cases = append(cases, joinCase{fmt.Sprintf("order by, sort avoided, desc=%v", desc), func() *JoinQuery {
			return &JoinQuery{
				Tables:  []*catalog.Table{sCust, sOrd},
				Local:   []expr.Expr{expr.NewCmp(expr.LT, expr.Col(0, "ID"), expr.Lit(expr.Int(12))), nil},
				Preds:   []JoinPred{{LT: 0, LC: 0, RT: 1, RC: 1}},
				OrderBy: []int{0}, OrderDesc: desc,
			}
		}, sortAvoid})
	}
	modes := []struct {
		name  string
		cfg   Config
		fixed bool
	}{
		{"dynamic", Config{}, false},
		{"fixed", Config{}, true},
		{"adaptive-2", Config{Parallelism: 2, AdaptiveParallelism: true}, false},
	}
	for _, tc := range cases {
		// The oracle's rows, unprojected, in ORDER BY order, cut at the LIMIT.
		ojq := tc.jq()
		proj := ojq.Projection
		ojq.Projection = nil
		want := oracleJoin(t, ojq, tc.tabs)
		if len(ojq.OrderBy) > 0 {
			sortRows(want, ojq.OrderBy, ojq.OrderDesc)
		}
		if ojq.Limit > 0 && len(want) > ojq.Limit {
			want = want[:ojq.Limit]
		}
		for _, m := range modes {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				o := NewOptimizer(m.cfg)
				var plan *JoinPlan
				if m.fixed {
					var err error
					if plan, err = o.PlanJoin(nil, tc.jq()); err != nil {
						t.Fatal(err)
					}
				}
				// Run unprojected too, so the sort keys can be read.
				for _, p := range [][]int{proj, nil} {
					jq := tc.jq()
					jq.Projection = p
					got, st := drainJoin(t, o.RunJoin(nil, jq, plan))
					wantP := make([]expr.Row, len(want))
					for i, row := range want {
						wantP[i] = projectRow(row, p)
					}
					if jq.Limit == 0 || len(jq.OrderBy) > 0 {
						assertSameRows(t, tc.name, got, wantP)
					}
					if len(got) != len(want) || st.RowsDelivered != len(want) {
						t.Fatalf("%d rows, stats say %d, want %d", len(got), st.RowsDelivered, len(want))
					}
					if p != nil {
						continue
					}
					for i := range got {
						for _, c := range jq.OrderBy {
							if expr.Compare(got[i][c], want[i][c]) != 0 {
								t.Fatalf("row %d: sort key %v, want %v (%s)", i, got[i][c], want[i][c], st.Strategy)
							}
						}
					}
				}
			})
		}
	}
}

// TestJoinEarlyStopStats: a join that stops early — at its LIMIT, or
// closed by the caller — read less than the whole join, reports the rows
// its stages really produced, and teaches the feedback registry nothing:
// a truncated actual is not an observation. The same join drained is
// observed, stage by stage and as a whole.
func TestJoinEarlyStopStats(t *testing.T) {
	f := newJoinFixture(t, 100, 600, 20, 64, false)
	run := func(limit, closeAfter int) (RetrievalStats, *feedback.Registry, *Optimizer) {
		fb := feedback.New(0)
		o := NewOptimizer(Config{Feedback: fb})
		jq := f.custOrdQuery(nil)
		jq.Limit = limit
		f.pool.EvictAll()
		// A fixed plan never feeds the registry; a dynamic run on the plan does.
		rows := runJoinOn(o, nil, jq, &JoinPlan{Stages: []JoinStagePlan{
			{Table: 0, Operator: "tscan", EstRows: 100}, {Table: 1, Operator: JoinOpINL, Index: "ORD_CUST_IX", EstRows: 600}}})
		for i := 0; closeAfter < 0 || i < closeAfter; i++ {
			if _, ok, err := rows.Next(); err != nil {
				t.Fatal(err)
			} else if !ok {
				break
			}
			if i == 0 {
				if st := rows.Stats(); len(st.JoinStages) != 2 || st.Strategy == "" || st.JoinStages[1].ActualRows == 0 {
					t.Fatalf("stats after the first row: %+v", st)
				}
			}
		}
		rows.Close()
		return rows.Stats(), fb, o
	}
	whole, fbWhole, _ := run(0, -1)
	if len(fbWhole.Snapshot()) == 0 {
		t.Fatal("a drained dynamic join recorded no feedback")
	}
	for name, early := range map[string]func() (RetrievalStats, *feedback.Registry, *Optimizer){
		"limit":  func() (RetrievalStats, *feedback.Registry, *Optimizer) { return run(10, -1) },
		"closed": func() (RetrievalStats, *feedback.Registry, *Optimizer) { return run(0, 10) },
	} {
		st, fb, o := early()
		if st.RowsDelivered != 10 {
			t.Fatalf("%s: %d rows delivered", name, st.RowsDelivered)
		}
		if d, w := st.JoinStages[0].ActualRows, whole.JoinStages[0].ActualRows; d >= w/2 {
			t.Fatalf("%s: the driver produced %d of %d rows for 10 joined rows", name, d, w)
		}
		if st.IO.IOCost() >= whole.IO.IOCost()/2 {
			t.Fatalf("%s: %d I/O against %d for the whole join", name, st.IO.IOCost(), whole.IO.IOCost())
		}
		if n := len(fb.Snapshot()); n != 0 {
			t.Fatalf("%s: a truncated run recorded %d feedback corrections", name, n)
		}
		if snap := o.Metrics().Snapshot(); snap.JoinQueries != 1 || snap.JoinOperatorWins[JoinOpINL] != 1 {
			t.Fatalf("%s: metrics %+v", name, snap)
		}
	}
}

// TestAllocsJoinDeliveredRow: a joined row costs the pipeline one
// allocation, the delivered row itself — no combined flat row and
// projected copy, the pair the stage-at-a-time executor paid. Measured
// over the streaming phase (the first row has sized every scratch
// buffer and built the hash table), on int columns; what is allowed on
// top is what the stage's inputs cost on their own: a table access's one
// allocation per row it delivers (TestAllocsKeptRowUnderProjection) and
// an inl probe's B-tree cursor.
func TestAllocsJoinDeliveredRow(t *testing.T) {
	skipAllocsUnderRace(t)
	f := newJoinFixture(t, 1000, 6000, 20, 0, false)
	for _, tc := range []struct {
		name     string
		stages   []JoinStagePlan
		perInput int // allocations per row the streamed side hands the stage
	}{
		// CUST streams into one index probe each: its row and the cursor.
		{"inl", []JoinStagePlan{{Table: 0, Operator: "tscan", EstRows: 1000},
			{Table: 1, Operator: JoinOpINL, Index: "ORD_CUST_IX"}}, 2},
		// An outer side announced larger than ORD keeps the build on ORD;
		// CUST streams past it.
		{"hj", []JoinStagePlan{{Table: 0, Operator: "tscan", EstRows: 10000},
			{Table: 1, Operator: JoinOpHJ}}, 1},
	} {
		jq := f.custOrdQuery(nil)
		jq.Projection = []int{0, 6} // CUST.ID, ORD.QTY
		rows := runJoinOn(NewOptimizer(Config{}), nil, jq, &JoinPlan{Stages: tc.stages})
		// The rounds grow to 64 upstream rows, which sizes the buffers.
		for i := 0; i < 1500; i++ {
			if _, ok, err := rows.Next(); err != nil || !ok {
				t.Fatal(tc.name, i, ok, err)
			}
		}
		before := rows.Stats()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n, err := drainToErr(rows)
		runtime.ReadMemStats(&m1)
		if err != nil || n < 3000 {
			t.Fatal(tc.name, n, err)
		}
		st := rows.Stats()
		rows.Close()
		inputs := st.JoinStages[0].ActualRows - before.JoinStages[0].ActualRows
		allocs := int(m1.Mallocs - m0.Mallocs)
		t.Logf("%s: %d allocations, %d delivered rows, %d input rows (%s)", tc.name, allocs, n, inputs, st.Strategy)
		if limit := n + tc.perInput*inputs + 8; inputs < 500 || allocs > limit {
			t.Errorf("%s: %d allocations for %d delivered rows over %d input rows, want at most %d", tc.name, allocs, n, inputs, limit)
		}
		if allocs >= 2*n {
			t.Errorf("%s: %d allocations for %d delivered rows: two a row again", tc.name, allocs, n)
		}
	}
}
