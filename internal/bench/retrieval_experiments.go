package bench

import (
	"context"
	"fmt"
	"math/rand"

	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/workload"
)

// familiesSpec is the shared T4.A / T7.* fixture: the paper's FAMILIES
// table with a wide-domain AGE column (so sub-page selectivities exist)
// and padding that yields realistic rows-per-page.
func familiesSpec(rows int) workload.TableSpec {
	return workload.TableSpec{
		Name: "FAMILIES",
		Rows: rows,
		Columns: []workload.ColumnSpec{
			{Name: "ID", Gen: &workload.Seq{}},
			{Name: "AGE", Gen: workload.Uniform{Lo: 0, Hi: 10000}},
			{Name: "CITY", Gen: &workload.Zipf{S: 1.3, V: 1, N: 1000}},
			{Name: "PAD", Gen: workload.Pad{Len: 60}},
		},
		Indexes: [][]string{{"AGE"}},
		Seed:    101,
	}
}

// HostVariable regenerates the paper's Section 4 motivating example:
// "select * from FAMILIES where AGE >= :A1" with :A1 swinging between
// all-rows and no-rows. Contenders: the dynamic optimizer (re-plans per
// run), a static plan frozen by sniffing a selective first binding, a
// static plan frozen with compile-time defaults, and the pure fixed
// strategies.
func HostVariable(rows int) (*Report, error) {
	if rows <= 0 {
		rows = 50000
	}
	l, err := newLab(256, core.DefaultConfig(), familiesSpec(rows))
	if err != nil {
		return nil, err
	}
	stmt, err := l.db.PrepareContext(context.Background(), "SELECT * FROM FAMILIES WHERE AGE >= :A1")
	if err != nil {
		return nil, err
	}
	frozenSniffed, err := stmt.Freeze(engine.Binds{"A1": 9998})
	if err != nil {
		return nil, err
	}
	frozenDefault, err := stmt.Freeze(nil)
	if err != nil {
		return nil, err
	}
	ageIx := l.tab.Indexes[0]
	r := &Report{
		ID:    "T4.A",
		Title: fmt.Sprintf("Host-variable sensitivity: AGE >= :A1 over %d rows, %d pages (paper Section 4)", rows, l.tab.Pages()),
		Header: []string{"A1", "sel", "rows", "dynamic I/O", "frozen-sniffed I/O",
			"frozen-default I/O", "fixed Fscan I/O", "fixed Tscan I/O", "dynamic strategy"},
	}
	r.Notef("frozen-sniffed plan: %s; frozen-default plan: %s", frozenSniffed.Plan, frozenDefault.Plan)
	for _, a1 := range []int64{9999, 9990, 9900, 9000, 5000, 0} {
		binds := engine.Binds{"A1": a1}
		nRows, dynIO, st, err := l.runStmt(stmt, binds, 0)
		if err != nil {
			return nil, err
		}
		_, snIO, err := l.runFrozen(frozenSniffed, binds, 0)
		if err != nil {
			return nil, err
		}
		_, dfIO, err := l.runFrozen(frozenDefault, binds, 0)
		if err != nil {
			return nil, err
		}
		q := &core.Query{
			Table:       l.tab,
			Restriction: mustRestriction(l, "AGE", expr.GE, a1),
			Binds:       nil,
		}
		_, fsIO, err := l.runPlan(q, pinned("fscan", ageIx), 0)
		if err != nil {
			return nil, err
		}
		_, tsIO, err := l.runPlan(q, pinned("tscan", nil), 0)
		if err != nil {
			return nil, err
		}
		sel := float64(nRows) / float64(rows)
		r.AddRow(n(a1), f(sel), n(int64(nRows)), n(dynIO.IOCost()), n(snIO.IOCost()),
			n(dfIO.IOCost()), n(fsIO.IOCost()), n(tsIO.IOCost()), st.Strategy)
	}
	r.Notef("shape to reproduce: dynamic tracks min(Fscan, Tscan) across the whole sweep;")
	r.Notef("each frozen plan is catastrophic at one end of it.")
	return r, nil
}

func mustRestriction(l *lab, col string, op expr.CmpOp, v int64) expr.Expr {
	ci, err := l.tab.ColumnIndex(col)
	if err != nil {
		panic(err)
	}
	return expr.NewCmp(op, expr.Col(ci, col), expr.Lit(expr.Int(v)))
}

// EstimationStudy regenerates the Section 5 estimation claims: the
// descent-to-split-node estimate is cheap, always current, and good for
// small ranges; the refined edge descent and ranked sampling trade a
// little more I/O for more precision.
func EstimationStudy(rows int) (*Report, error) {
	if rows <= 0 {
		rows = 100000
	}
	spec := workload.TableSpec{
		Name: "E",
		Rows: rows,
		Columns: []workload.ColumnSpec{
			{Name: "K", Gen: workload.Uniform{Lo: 0, Hi: int64(rows)}},
			{Name: "Z", Gen: &workload.Zipf{S: 1.4, V: 1, N: 10000}},
		},
		Indexes: [][]string{{"K"}, {"Z"}},
		Seed:    55,
	}
	l, err := newLab(0, core.DefaultConfig(), spec)
	if err != nil {
		return nil, err
	}
	kIx, err := l.mustIndex("E_IX0_K")
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "T5.E",
		Title: fmt.Sprintf("Range estimation quality and cost over %d uniform keys (paper Section 5)", rows),
		Header: []string{"range width", "truth", "descent k*f^(l-1)", "refined", "sample-64",
			"descent I/O", "Tscan I/O equivalent"},
	}
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int64{1, 10, 100, 1000, 10000, int64(rows) / 2} {
		if width >= int64(rows) {
			continue // a reduced -rows has no room for the wide ranges
		}
		lo := rng.Int63n(int64(rows) - width)
		rgLo := expr.Bound{Value: expr.Int(lo), Inclusive: true, Present: true}
		rgHi := expr.Bound{Value: expr.Int(lo + width), Present: true}
		rg := expr.Range{Lo: rgLo, Hi: rgHi}
		kl, kh := rg.EncodedBounds()
		truth, err := kIx.Tree.CountRange(kl, kh)
		if err != nil {
			return nil, err
		}
		l.db.Pool().EvictAll()
		l.db.Pool().ResetStats()
		est, err := kIx.Tree.EstimateRange(kl, kh)
		if err != nil {
			return nil, err
		}
		descCost := l.db.Pool().Stats().IOCost()
		refined, _, err := kIx.Tree.EstimateRangeRefined(kl, kh)
		if err != nil {
			return nil, err
		}
		_, _, sampled, err := kIx.Tree.SampleRange(rng, kl, kh, 64)
		if err != nil {
			return nil, err
		}
		r.AddRow(n(width), n(truth), f(est.RIDs), f(refined), n(sampled),
			n(descCost), n(int64(l.tab.Pages())))
	}
	r.Notef("shape to reproduce: descent cost ~ tree height per probe, orders below a scan;")
	r.Notef("exact for leaf-resolved (small) ranges, coarser as ranges span more children.")
	return r, nil
}

// JscanStudy regenerates the Section 6 claims: the two-stage
// competition eliminates unproductive index scans (here a correlated
// second index whose intersection cannot shrink the list) and the
// dynamic criterion beats the statically-thresholded variant of
// [MoHa90] because it readjusts to the measured guaranteed best.
func JscanStudy(rows int) (*Report, error) {
	if rows <= 0 {
		rows = 40000
	}
	spec := workload.TableSpec{
		Name: "J",
		Rows: rows,
		Columns: []workload.ColumnSpec{
			{Name: "A", Gen: workload.Uniform{Lo: 0, Hi: 1000}},
			{Name: "B", Gen: workload.Correlated{Source: 0, Noise: 3}}, // ~= A
			{Name: "C", Gen: workload.Uniform{Lo: 0, Hi: 1000}},        // independent, wide
			{Name: "D", Gen: workload.Uniform{Lo: 0, Hi: 1000}},        // independent, wide
			{Name: "PAD", Gen: workload.Pad{Len: 50}},
		},
		Indexes: [][]string{{"A"}, {"B"}, {"C"}, {"D"}},
		Seed:    77,
	}
	r := &Report{
		ID:     "T6.J",
		Title:  "Jscan two-stage competition: correlated indexes and unproductive scans (paper Section 6)",
		Header: []string{"executor", "I/O", "rows", "final list", "strategy"},
	}
	// A < 5 is tiny (~0.5%); B < 8 is correlated with A so its scan
	// cannot shrink the list; C and D carry wide, nearly useless
	// restrictions whose scans only a readjusted guaranteed-best cost
	// can prove pointless.
	sqlText := "SELECT * FROM J WHERE A < 5 AND B < 8 AND C < 800 AND D < 900"
	type contender struct {
		name string
		cfg  core.Config
	}
	base := core.DefaultConfig()
	static := base
	static.StaticThresholds = true
	noComp := base
	noComp.DisableCompetition = true
	cons := []contender{
		{"dynamic (paper)", base},
		{"static thresholds [MoHa90]", static},
		{"no competition", noComp},
	}
	for _, c := range cons {
		l, err := newLab(256, c.cfg, spec)
		if err != nil {
			return nil, err
		}
		stmt, err := l.db.PrepareContext(context.Background(), sqlText)
		if err != nil {
			return nil, err
		}
		nRows, io, st, err := l.runStmt(stmt, nil, 0)
		if err != nil {
			return nil, err
		}
		fin := "-"
		if st.FinalListLen >= 0 {
			fin = n(int64(st.FinalListLen))
		}
		r.AddRow(c.name, n(io.IOCost()), n(int64(nRows)), fin, st.Strategy)
	}
	// Fixed baselines on a fresh lab.
	l, err := newLab(256, base, spec)
	if err != nil {
		return nil, err
	}
	aCol, _ := l.tab.ColumnIndex("A")
	bCol, _ := l.tab.ColumnIndex("B")
	cCol, _ := l.tab.ColumnIndex("C")
	dCol, _ := l.tab.ColumnIndex("D")
	restriction := expr.NewAnd(
		expr.NewCmp(expr.LT, expr.Col(aCol, "A"), expr.Lit(expr.Int(5))),
		expr.NewCmp(expr.LT, expr.Col(bCol, "B"), expr.Lit(expr.Int(8))),
		expr.NewCmp(expr.LT, expr.Col(cCol, "C"), expr.Lit(expr.Int(800))),
		expr.NewCmp(expr.LT, expr.Col(dCol, "D"), expr.Lit(expr.Int(900))),
	)
	q := &core.Query{Table: l.tab, Restriction: restriction}
	ix0 := l.tab.Indexes[0]
	for _, fx := range []struct {
		strategy string
		plan     *core.Plan
	}{
		{"Fscan(" + ix0.Name + ")", pinned("fscan", ix0)},
		{"Tscan", pinned("tscan", nil)},
	} {
		nRows, io, err := l.runPlan(q, fx.plan, 0)
		if err != nil {
			return nil, err
		}
		r.AddRow("fixed "+fx.strategy, n(io.IOCost()), n(int64(nRows)), "-", fx.strategy)
	}
	r.Notef("B is A plus tiny noise: its scan cannot shrink A's RID list, so the dynamic")
	r.Notef("competition abandons or skips it; C's huge range is skipped by the scan-cost pre-check.")
	return r, nil
}

// GoalInference regenerates the Section 4 goal-derivation rules on SQL
// statements, including the analog of the paper's three-level example.
func GoalInference() (*Report, error) {
	l, err := newLab(0, core.DefaultConfig(), familiesSpec(1000))
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "T4.G",
		Title:  "Optimization-goal inference (paper Section 4)",
		Header: []string{"statement", "controlling node", "goal"},
	}
	cases := []string{
		"SELECT * FROM FAMILIES WHERE AGE > 10 LIMIT TO 2 ROWS",
		"SELECT COUNT(*) FROM FAMILIES WHERE AGE > 10",
		"SELECT * FROM FAMILIES WHERE AGE > 10 ORDER BY AGE",
		"SELECT * FROM FAMILIES WHERE AGE > 10",
		"SELECT * FROM FAMILIES WHERE AGE > 10 OPTIMIZE FOR FAST FIRST",
		"SELECT * FROM FAMILIES WHERE AGE > 10 OPTIMIZE FOR TOTAL TIME",
		"SELECT * FROM FAMILIES WHERE AGE > 10 LIMIT 2 OPTIMIZE FOR TOTAL TIME",
	}
	ctlName := map[core.ControlNode]string{
		core.ControlNone: "none", core.ControlLimit: "LIMIT",
		core.ControlSort: "SORT", core.ControlAggregate: "aggregate",
		core.ControlExists: "EXISTS",
	}
	for _, src := range cases {
		stmt, err := l.db.PrepareContext(context.Background(), src)
		if err != nil {
			return nil, err
		}
		// Execute once to prove the statement runs.
		res, err := stmt.QueryContext(context.Background(), nil)
		if err != nil {
			return nil, err
		}
		if _, err := drainResult(res, 1); err != nil {
			return nil, err
		}
		q := stmt.CoreQuery()
		r.AddRow(src, ctlName[q.Control], q.EffectiveGoal().String())
	}
	r.Notef("paper rule: EXISTS/LIMIT control -> fast-first; SORT/aggregate control -> total-time;")
	r.Notef("otherwise the user's OPTIMIZE FOR request or the default applies.")
	return r, nil
}
