package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rdbdyn/internal/expr"
)

// TestAdaptiveWidthPolicy pins planParallelWidth's choices over an
// estimate × ceiling grid. The formula cost(k) = estIO/k + startup·(k-1)
// has a closed-form minimizer k* ≈ sqrt(estIO/startup); these cases pin
// the discrete scan's behaviour at the boundaries: the width-1 floor
// for small scans (estIO <= 2·startup ties to sequential), the
// square-root growth region, the ceiling, and the hard maxParallelism
// clamp.
func TestAdaptiveWidthPolicy(t *testing.T) {
	cases := []struct {
		name  string
		estIO float64
		max   int
		want  int
	}{
		{"zero estimate stays sequential", 0, 64, 1},
		{"tie resolves to smaller width", 4, 64, 1}, // cost(2) == cost(1)
		{"just past the tie fans to 2", 5, 64, 2},
		{"sqrt region: estIO 32 -> 4", 32, 64, 4},
		{"sqrt region: estIO 128 -> 8", 128, 64, 8},
		{"sqrt region: estIO 2048 -> 32", 2048, 64, 32},
		{"huge scan hits the ceiling", 1e9, 64, 64},
		{"ceiling clamps to maxParallelism", 1e9, 1000, maxParallelism},
		{"max 1 has no decision", 1e9, 1, 1},
	}
	for _, c := range cases {
		if got := planParallelWidth(c.estIO, c.max); got != c.want {
			t.Errorf("%s: planParallelWidth(%g, %d) = %d, want %d",
				c.name, c.estIO, c.max, got, c.want)
		}
	}
}

// TestAdaptiveEquivalenceAllTactics extends the deterministic-
// equivalence sweep to the adaptive policy: for every tactic shape,
// widths {1, 2, 4} and adaptive mode must deliver identical rows in
// identical order with identical attributed I/O and identical
// pre-existing metrics. Adaptive runs additionally populate the width
// histogram (its decisions are observable), so those counters are
// compared separately rather than zero-asserted away, and each decision
// must name Tscan or Fin (runEquiv).
func TestAdaptiveEquivalenceAllTactics(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	age, city, salary := f.col(t, "AGE"), f.col(t, "CITY"), f.col(t, "SALARY")

	queries := []equivShape{
		{name: "tscan", q: &Query{
			Table:       f.tab,
			Restriction: expr.NewCmp(expr.GE, expr.Col(salary, "SALARY"), expr.Lit(expr.Float(5000))),
		}},
		{name: "background-only", q: bgQuery(f, t, GoalTotalTime)},
		{name: "fast-first", q: bgQuery(f, t, GoalFastFirst)},
		{name: "union", q: &Query{
			Table: f.tab,
			Restriction: expr.NewOr(
				expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(5))),
				expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(7))),
			),
		}},
		{name: "ordered-index", q: &Query{
			Table:       f.tab,
			Restriction: expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(25))),
			OrderBy:     []int{age},
		}},
		raceShape(f, t),
	}

	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			base := runEquiv(t, f, tc, 0, false)
			for _, w := range []int{1, 2, 4} {
				par := runEquiv(t, f, tc, w, false)
				requireEquiv(t, "static width", w, par, base)
			}
			ad := runEquiv(t, f, tc, 4, true)
			requireEquiv(t, "adaptive", 4, ad, base)
		})
	}
}

// requireEquiv asserts the deterministic-equivalence contract between a
// parallel run and the sequential baseline. Adaptive width decisions
// feed counters that have no sequential counterpart, so those fields
// are compared against the run's own event stream instead of the
// baseline before the snapshots are diffed.
func requireEquiv(t *testing.T, label string, w int, par, base equivRun) {
	t.Helper()
	if par.tactic != base.tactic || par.strategy != base.strategy {
		t.Fatalf("%s w=%d: tactic/strategy %s/%s, sequential %s/%s",
			label, w, par.tactic, par.strategy, base.tactic, base.strategy)
	}
	if len(par.rows) != len(base.rows) {
		t.Fatalf("%s w=%d: %d rows vs %d", label, w, len(par.rows), len(base.rows))
	}
	for i := range par.rows {
		if par.rows[i] != base.rows[i] {
			t.Fatalf("%s w=%d: row order diverged at %d", label, w, i)
		}
	}
	if par.io != base.io {
		t.Fatalf("%s w=%d: attributed I/O %+v, sequential %+v", label, w, par.io, base.io)
	}
	if par.estimate != base.estimate {
		t.Fatalf("%s w=%d: estimation I/O %d, sequential %d", label, w, par.estimate, base.estimate)
	}
	if par.fgRows != base.fgRows || par.finalLen != base.finalLen {
		t.Fatalf("%s w=%d: fg=%d final=%d, sequential fg=%d final=%d",
			label, w, par.fgRows, par.finalLen, base.fgRows, base.finalLen)
	}
	// Width decisions are the only permitted metrics delta: the
	// histogram must account for exactly the width-chosen events the run
	// emitted, and nothing else may move.
	var chosen int64
	for _, n := range par.snap.ParallelWidths {
		chosen += n
	}
	if want := int64(par.widthEvents); chosen != want {
		t.Fatalf("%s w=%d: width histogram counts %d decisions, trace has %d", label, w, chosen, want)
	}
	scrub := func(s MetricsSnapshot) MetricsSnapshot {
		s.ParallelWidths = nil
		s.ParallelSeqDowngrades = 0
		return s
	}
	ps, bs := scrub(par.snap), scrub(base.snap)
	if !reflect.DeepEqual(ps, bs) {
		t.Fatalf("%s w=%d: metrics delta diverged:\n par %+v\n seq %+v", label, w, ps, bs)
	}
}

// TestAdaptiveDowngradesSmallScan pins the policy's sequential-downgrade
// half: a scan far smaller than the per-worker startup cost must choose
// width 1 — recorded in the histogram and the downgrade counter — and
// spawn no partition workers.
func TestAdaptiveDowngradesSmallScan(t *testing.T) {
	f := newFixture(t, 300) // a few pages: estIO ~ startup
	age := f.col(t, "AGE")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(0))),
	}
	cfg := DefaultConfig()
	cfg.Parallelism = 8
	cfg.AdaptiveParallelism = true
	o := NewOptimizer(cfg)
	ec, log := tracedCtx()
	rows := o.RunExec(ec, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "downgraded tscan")
	evs := log.Take()
	ev := firstEvent(evs, EvParallelWidthChosen, "")
	if ev == nil {
		t.Fatalf("no width decision in trace: %v", evs)
	}
	if ev.Width != 1 {
		t.Fatalf("width = %d, want 1 (startup dominates)", ev.Width)
	}
	snap := o.Metrics().Snapshot()
	if snap.ParallelSeqDowngrades == 0 {
		t.Fatal("sequential downgrade not counted")
	}
	if snap.ParallelWidths["1"] == 0 {
		t.Fatalf("width histogram missing bucket 1: %v", snap.ParallelWidths)
	}
}

// TestAdaptivePinnedTscanWidth: a frozen Tscan plan asks the same width
// policy as the dynamic path — RunPlan on a small table under a
// saturated ceiling stays at width 1 with the decision in its trace,
// and delivers the dynamic run's rows for the dynamic run's attributed
// I/O — and a Limit-capped Tscan, which never partitions, is width 1
// without a decision.
func TestAdaptivePinnedTscanWidth(t *testing.T) {
	f := newFixture(t, 300)
	age := f.col(t, "AGE")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(0))),
	}
	cfg := DefaultConfig()
	cfg.Parallelism = 8
	cfg.AdaptiveParallelism = true
	o := NewOptimizer(cfg)
	run := func(rows Rows) ([]expr.Row, RetrievalStats) {
		t.Helper()
		got := drain(t, rows)
		return got, rows.Stats()
	}
	f.pool.EvictAll()
	dyn, dynSt := run(o.RunExec(nil, q))
	f.pool.EvictAll()
	ec, log := tracedCtx()
	pin, pinSt := run(o.RunPlan(ec, q, &Plan{Tactic: "tscan"}))
	evs := log.Take()
	ev := firstEvent(evs, EvParallelWidthChosen, "")
	if ev == nil || ev.Scan != "Tscan" || ev.Width != 1 {
		t.Fatalf("pinned Tscan's width decision = %v, want width 1; trace: %v", ev, evs)
	}
	if strings.Contains(fmt.Sprint(evs), "streamed") {
		t.Fatalf("pinned Tscan of a %d-page table fanned out: %v", f.tab.Pages(), evs)
	}
	sameMultiset(t, pin, dyn, "pinned tscan")
	if pinSt.IO != dynSt.IO {
		t.Fatalf("pinned run attributed %+v, dynamic run %+v", pinSt.IO, dynSt.IO)
	}
	limited := *q
	limited.Limit = 10
	if w := tscanWidth(cfg, nil, &limited, 1e6); w != 1 {
		t.Fatalf("a Limit-capped Tscan got width %d, want 1", w)
	}
}
