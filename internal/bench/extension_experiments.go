package bench

import (
	"context"
	"fmt"

	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/workload"
)

// UnionScan exercises the OR-coverage extension (the paper's Section 7
// names "covering ORs" as the next step for the architecture): a
// restriction whose top level is an OR of index-sargable disjuncts is
// resolved by a union scan, with the same competition-based fallback to
// Tscan when the union grows too wide.
func UnionScan(rows int) (*Report, error) {
	if rows <= 0 {
		rows = 50000
	}
	l, err := newLab(256, core.DefaultConfig(), familiesSpec(rows))
	if err != nil {
		return nil, err
	}
	if _, err := l.tab.CreateIndex("CITY_IX", "CITY"); err != nil {
		return nil, err
	}
	stmt, err := l.db.PrepareContext(context.Background(), "SELECT * FROM FAMILIES WHERE AGE < :W OR CITY = :C OPTIMIZE FOR TOTAL TIME")
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "T8.OR",
		Title:  fmt.Sprintf("Union scan for OR restrictions over %d rows, %d pages (extension of Section 7)", rows, l.tab.Pages()),
		Header: []string{"AGE width", "CITY", "rows", "dynamic I/O", "fixed Tscan I/O", "strategy"},
	}
	cases := []struct {
		w, c int64
	}{
		{20, 900},  // two thin slices
		{200, 500}, // thin + moderate
		{2000, 2},  // moderate + hot Zipf value
		{8000, 0},  // wide: union must abandon to Tscan
	}
	for _, tc := range cases {
		binds := engine.Binds{"W": tc.w, "C": tc.c}
		nRows, dynIO, st, err := l.runStmt(stmt, binds, 0)
		if err != nil {
			return nil, err
		}
		q := stmt.CoreQuery()
		bb, err := binds.Bindings()
		if err != nil {
			return nil, err
		}
		q.Binds = bb
		_, tsIO, err := l.runPlan(q, pinned("tscan", nil), 0)
		if err != nil {
			return nil, err
		}
		r.AddRow(n(tc.w), n(tc.c), n(int64(nRows)), n(dynIO.IOCost()), n(tsIO.IOCost()), st.Strategy)
	}
	r.Notef("shape: selective unions resolve via per-disjunct index scans far below Tscan;")
	r.Notef("the union's two-stage competition abandons to Tscan once the projected list grows too wide.")
	return r, nil
}

// Ablations measures how each dynamic-optimizer design choice moves the
// cost on the T6.J workload (correlated + unproductive indexes): the
// switch criterion thresholds, adjacent-pair racing, the initial-stage
// short-range shortcut, and competition as a whole.
func Ablations(rows int) (*Report, error) {
	if rows <= 0 {
		rows = 40000
	}
	spec := workload.TableSpec{
		Name: "J",
		Rows: rows,
		Columns: []workload.ColumnSpec{
			{Name: "A", Gen: workload.Uniform{Lo: 0, Hi: 1000}},
			{Name: "B", Gen: workload.Correlated{Source: 0, Noise: 3}},
			{Name: "C", Gen: workload.Uniform{Lo: 0, Hi: 1000}},
			{Name: "D", Gen: workload.Uniform{Lo: 0, Hi: 1000}},
			{Name: "PAD", Gen: workload.Pad{Len: 50}},
		},
		Indexes: [][]string{{"A"}, {"B"}, {"C"}, {"D"}},
		Seed:    77,
	}
	// Two probes: the correlated/unproductive workload (exercises the
	// skip pre-check and racing) and a borderline single-index query
	// whose projected final cost sits just above the default threshold
	// (exercises mid-scan abandonment).
	sqlText := "SELECT * FROM J WHERE A < 5 AND B < 8 AND C < 800 AND D < 900"
	borderSQL := "SELECT * FROM J WHERE A < 28"
	r := &Report{
		ID:     "TA.AB",
		Title:  "Design-choice ablations (DESIGN.md knobs)",
		Header: []string{"configuration", "correlated I/O", "strategy", "borderline I/O", "strategy"},
	}
	for _, c := range ablationConfigs() {
		l, err := newLab(256, c.cfg, spec)
		if err != nil {
			return nil, err
		}
		stmt, err := l.db.PrepareContext(context.Background(), sqlText)
		if err != nil {
			return nil, err
		}
		_, io, st, err := l.runStmt(stmt, nil, 0)
		if err != nil {
			return nil, err
		}
		bStmt, err := l.db.PrepareContext(context.Background(), borderSQL)
		if err != nil {
			return nil, err
		}
		_, bio, bst, err := l.runStmt(bStmt, nil, 0)
		if err != nil {
			return nil, err
		}
		r.AddRow(c.name, n(io.IOCost()), st.Strategy, n(bio.IOCost()), bst.Strategy)
	}
	r.Notef("the default criterion dominates: timid switching and disabled competition pay for")
	r.Notef("unproductive scans, while an aggressive threshold risks abandoning productive ones.")
	return r, nil
}

// ablation is one row of Ablations: a configuration and its label.
type ablation struct {
	name string
	cfg  core.Config
}

// ablationConfigs lists Ablations' rows: the default, then one row per
// knob moved off its default.
func ablationConfigs() []ablation {
	base := core.DefaultConfig()
	mk := func(mod func(*core.Config)) core.Config {
		c := base
		mod(&c)
		return c
	}
	return []ablation{
		{"default (0.95 / 0.5)", base},
		{"aggressive switch (0.50)", mk(func(c *core.Config) { c.Criterion.Threshold = 0.5 })},
		{"timid switch (0.999)", mk(func(c *core.Config) { c.Criterion.Threshold = 0.999 })},
		{"tight scan limit (0.1)", mk(func(c *core.Config) { c.Criterion.ScanCostFrac = 0.1 })},
		{"no pair racing", mk(func(c *core.Config) { c.RaceFactor = -1 })},
		{"no short-range shortcut", mk(func(c *core.Config) { c.ShortRange = 1 })},
		{"no competition at all", mk(func(c *core.Config) { c.DisableCompetition = true })},
	}
}

// Interference reproduces the Section 3(c) observation: "the pattern of
// caching the disk pages is influenced by many asynchronous processes
// totally unrelated to a given retrieval". The same selective query is
// measured solo on a warm cache and interleaved row-by-row with a
// cache-hostile sequential scan sharing the pool.
func Interference(rows int) (*Report, error) {
	if rows <= 0 {
		rows = 50000
	}
	l, err := newLab(128, core.DefaultConfig(), familiesSpec(rows))
	if err != nil {
		return nil, err
	}
	if _, err := l.tab.CreateIndex("ID_IX", "ID"); err != nil {
		return nil, err
	}
	// The victim is a clustered slice: a handful of heap pages, fully
	// cacheable. The bully is a plain sequential stream sharing the pool.
	victimSQL := "SELECT * FROM FAMILIES WHERE ID < 2000"
	bullySQL := "SELECT * FROM FAMILIES"

	runVictim := func() (int64, error) {
		before := l.db.Pool().Stats().IOCost()
		res, err := l.db.QueryContext(context.Background(), victimSQL, nil)
		if err != nil {
			return 0, err
		}
		if _, err := drainResult(res, 0); err != nil {
			return 0, err
		}
		return l.db.Pool().Stats().IOCost() - before, nil
	}

	r := &Report{
		ID:     "T3.I",
		Title:  "Cache interference between concurrent retrievals (paper Section 3c)",
		Header: []string{"scenario", "victim I/O"},
	}
	// Warm the cache with one run, then measure solo (mostly hits).
	if _, err := runVictim(); err != nil {
		return nil, err
	}
	solo, err := runVictim()
	if err != nil {
		return nil, err
	}
	r.AddRow("solo, warm cache", n(solo))

	// Interleaved: between every victim row, the bully streams 100 rows
	// through the shared pool.
	victim, err := l.db.QueryContext(context.Background(), victimSQL, nil)
	if err != nil {
		return nil, err
	}
	var victimIO int64
	bully, err := l.db.QueryContext(context.Background(), bullySQL, nil)
	if err != nil {
		return nil, err
	}
	for {
		b0 := l.db.Pool().Stats().IOCost()
		_, ok, err := victim.Next()
		if err != nil {
			return nil, err
		}
		victimIO += l.db.Pool().Stats().IOCost() - b0
		if !ok {
			break
		}
		for i := 0; i < 100; i++ {
			if _, ok, err := bully.Next(); err != nil {
				return nil, err
			} else if !ok {
				bully.Close()
				bully, err = l.db.QueryContext(context.Background(), bullySQL, nil)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	victim.Close()
	bully.Close()
	r.AddRow("interleaved with a scanning query", n(victimIO))
	r.Notef("same query, same data: the shared cache makes per-query cost unpredictable, which is")
	r.Notef("why the paper treats fetch costs as an uncertainty competition must absorb, not a constant.")
	return r, nil
}
