// Package planner implements the traditional static optimizer baseline:
// mean-point cost estimation in the style of System R [SACL79], a single
// frozen plan, and no run-time strategy changes.
//
// Two preparation modes reproduce the two classic failure stories the
// paper's dynamic optimizer resolves:
//
//   - Prepare uses compile-time "magic number" default selectivities
//     (1/10 for equality, 1/3 for ranges) because host-variable values
//     are unknown at compile time;
//   - PrepareSniffing estimates with the first execution's bindings and
//     freezes the resulting plan, which is catastrophic when later runs
//     bind very different values (the paper's AGE >= :A1 example).
//
// Either way the frozen plan is a core.Plan — the same pinned-plan
// representation the engine's plan cache captures — replayed through
// Optimizer.RunPlan for every subsequent run.
package planner

import (
	"fmt"
	"math"
	"strings"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
)

// System R default selectivities, used when a predicate's constant is
// unknown at compile time.
const (
	DefaultEqSelectivity    = 0.10
	DefaultRangeSelectivity = 1.0 / 3.0
)

// Plan is a frozen execution plan with its compile-time cost estimate.
type Plan struct {
	// Strategy is the pinned plan: tscan, or sscan/fscan over one index.
	Strategy *core.Plan
	// Cost is the mean-point I/O estimate that won plan selection.
	Cost float64
	// Selectivity is the estimated restriction selectivity used.
	Selectivity float64
}

// String names the scan the way RetrievalStats.Strategy does:
// "Tscan", "Fscan(AGE_IX)".
func (p *Plan) String() string {
	scan := p.Strategy.String()
	return fmt.Sprintf("%s%s (est cost %.0f, sel %.3f)", strings.ToUpper(scan[:1]), scan[1:], p.Cost, p.Selectivity)
}

// JoinPlan is a frozen multi-table plan: the greedy join order and
// per-stage operator choices made once before execution, System R
// style, and never revised mid-flight. The dynamic join path starts
// from the same plan but keeps re-optimizing; this is the baseline it
// competes against — replay it with Optimizer.RunJoin(ec, jq, p.Plan).
type JoinPlan struct {
	jq *core.JoinQuery
	// Plan is the frozen order and operator sequence.
	Plan *core.JoinPlan
}

// PrepareJoin freezes a static plan for a multi-table retrieval using
// uncorrected estimates (no feedback — the traditional optimizer
// learns nothing between runs). The estimation I/O it spends descends
// live B-trees, so call it with the same care as Prepare.
func PrepareJoin(ec *core.ExecCtx, jq *core.JoinQuery) (*JoinPlan, error) {
	plan, err := core.NewOptimizer(core.Config{}).PlanJoin(ec, jq)
	if err != nil {
		return nil, err
	}
	return &JoinPlan{jq: jq, Plan: plan}, nil
}

func (p *JoinPlan) String() string {
	return fmt.Sprintf("%s (est I/O %.0f)", p.Plan.Describe(p.jq), p.Plan.EstIO)
}

// Prepare chooses a plan with compile-time default selectivities (host
// variables unknown).
func Prepare(q *core.Query) (*Plan, error) {
	return prepare(q, nil, false)
}

// PrepareSniffing chooses a plan using the given first-run bindings for
// range estimation, then freezes it.
func PrepareSniffing(q *core.Query, binds expr.Bindings) (*Plan, error) {
	return prepare(q, binds, true)
}

func prepare(q *core.Query, binds expr.Bindings, sniff bool) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	model := estimate.CostModel{
		TablePages: q.Table.Pages(),
		TableRows:  q.Table.Cardinality(),
	}
	rows := float64(q.Table.Cardinality())
	needed := queryColumns(q)

	best := &Plan{
		Strategy:    &core.Plan{Tactic: "tscan"},
		Cost:        model.TscanCost(),
		Selectivity: 1,
	}
	// Unlike the dynamic optimizer, the static planner classifies
	// indexes syntactically: at compile time host-variable values are
	// unknown, so any comparison shape on the leading column counts as
	// a restriction.
	for _, ix := range q.Table.Indexes {
		sel, err := indexSelectivity(q, ix, binds, sniff)
		if err != nil {
			return nil, err
		}
		covering := ix.Covers(needed)
		ordered := len(q.OrderBy) > 0 && ix.DeliversOrder(q.OrderBy)
		if sel >= 1 && !ordered {
			continue // unrestricted non-order index: useless
		}
		est := sel * rows
		var cost float64
		tactic := "fscan"
		if covering {
			tactic = "sscan"
			cost = model.SscanCost(est, ix.Tree.AvgLeafEntries(), ix.Tree.Height())
		} else {
			cost = model.FscanCost(est, ix.Tree.AvgLeafEntries(), ix.Tree.Height())
		}
		if cost < best.Cost {
			best = &Plan{
				Strategy:    &core.Plan{Tactic: tactic, Indexes: []string{ix.Name}},
				Cost:        cost,
				Selectivity: sel,
			}
		}
	}
	return best, nil
}

// queryColumns returns every column the query touches.
func queryColumns(q *core.Query) []int {
	set := map[int]bool{}
	for _, c := range expr.Columns(q.Restriction) {
		set[c] = true
	}
	if q.Projection == nil {
		for i := range q.Table.Columns {
			set[i] = true
		}
	}
	for _, c := range append(append([]int(nil), q.Projection...), q.OrderBy...) {
		set[c] = true
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

// indexSelectivity estimates the selectivity of the restriction portion
// an index scan on ix would enforce (its leading-column conjuncts),
// with mean-point semantics.
func indexSelectivity(q *core.Query, ix *catalog.Index, binds expr.Bindings, sniff bool) (float64, error) {
	if sniff {
		lo, hi, n, empty := ix.RestrictionBounds(q.Restriction, binds)
		if n == 0 {
			return 1, nil
		}
		if empty {
			return 0, nil
		}
		rids, _, err := ix.Tree.EstimateRangeRefined(lo, hi)
		if err != nil {
			return 0, err
		}
		rows := float64(q.Table.Cardinality())
		if rows == 0 {
			return 0, nil
		}
		return math.Min(1, rids/rows), nil
	}
	// Compile-time magic numbers, one factor per sargable conjunct.
	sel := 1.0
	found := false
	for _, cj := range expr.Conjuncts(q.Restriction) {
		c, ok := cj.(*expr.Cmp)
		if !ok {
			continue
		}
		if !referencesOnly(c, ix.LeadingCol()) {
			continue
		}
		found = true
		if c.Op == expr.EQ {
			sel *= DefaultEqSelectivity
		} else {
			sel *= DefaultRangeSelectivity
		}
	}
	if !found {
		return 1, nil
	}
	return sel, nil
}

// referencesOnly reports whether cmp is a sargable-shaped comparison on
// the given column (column vs constant or parameter).
func referencesOnly(c *expr.Cmp, col int) bool {
	cols := expr.Columns(c)
	if len(cols) != 1 || cols[0] != col {
		return false
	}
	if c.Op == expr.NE {
		return false
	}
	return true
}
