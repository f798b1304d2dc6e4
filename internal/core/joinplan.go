package core

import (
	"fmt"
	"math"
	"strings"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
)

// joinTableInfo is the gathered planning state of one FROM table: its
// (corrected) filtered cardinality, the best restriction index, and
// distinct estimates for its join columns.
type joinTableInfo struct {
	card  float64 // estimated rows after the local restriction
	exact bool
	empty bool // local restriction provably matches nothing
	// restrIx is the most selective restriction index (nil when the
	// local restriction is unsargable or absent); restrLo/restrHi its
	// scan bounds, restrRIDs its estimated entry count.
	restrIx          *catalog.Index
	restrLo, restrHi []byte
	restrRIDs        float64
	estIO            int64
	res              estimate.Result // the appraisal estIO paid for (see joinAccess)
}

// JoinStagePlan is one planned stage: the table it joins in, the
// operator, the probe index (inl/ridx; the driver's scan index for
// stage 0), and the estimated output cardinality and I/O.
type JoinStagePlan struct {
	Table    int
	Operator string
	Index    string
	EstRows  float64
	EstIO    float64
}

// JoinPlan is a complete join execution plan: greedy table order plus a
// per-stage operator choice. Stage 0 is the driver scan.
type JoinPlan struct {
	Stages []JoinStagePlan
	EstIO  float64
	// Ordered marks a plan whose execution already delivers the query's
	// ORDER BY order — an order-delivering driver index scan followed
	// only by order-preserving probe stages (inl/ridx) — so the
	// executor can skip the final materialized sort. hj and nl stages
	// destroy the surviving order; a mid-flight re-plan into one of
	// them reinstates the sort at execution time.
	Ordered bool
}

// String renders the plan as "T0:tscan -> T1:inl(IX) -> T2:nl".
func (p *JoinPlan) Describe(jq *JoinQuery) string {
	var b strings.Builder
	for i, sg := range p.Stages {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(jq.nameOf(sg.Table))
		b.WriteString(":")
		b.WriteString(sg.Operator)
		if sg.Index != "" {
			fmt.Fprintf(&b, "(%s)", sg.Index)
		}
	}
	if p.Ordered {
		b.WriteString(" [order-preserving]")
	}
	return b.String()
}

// joinEdges converts the query's predicates to estimator edges.
func joinEdges(jq *JoinQuery) []estimate.JoinEdge {
	out := make([]estimate.JoinEdge, len(jq.Preds))
	for i, p := range jq.Preds {
		out[i] = estimate.JoinEdge{T1: p.LT, C1: p.LC, T2: p.RT, C2: p.RC}
	}
	return out
}

// gatherJoinInfo appraises every FROM table: filtered cardinality via
// the initial-stage estimator (feedback-corrected, charging estimation
// I/O), plus deterministic distinct-value samples for each join column.
func (o *Optimizer) gatherJoinInfo(ec *ExecCtx, jq *JoinQuery) ([]joinTableInfo, []estimate.JoinTable, error) {
	infos := make([]joinTableInfo, len(jq.Tables))
	jts := make([]estimate.JoinTable, len(jq.Tables))
	for i, tab := range jq.Tables {
		info := joinTableInfo{card: float64(tab.Cardinality()), exact: true}
		if local := jq.Local[i]; local != nil {
			// Only indexes the restriction actually bounds are useful;
			// an unrestricted index would just count the whole table.
			var useful []*catalog.Index
			for _, ix := range tab.Indexes {
				lo, hi, n, empty := ix.RestrictionBounds(local, jq.Binds)
				if empty {
					info.empty = true
				}
				if n > 0 && (lo != nil || hi != nil) {
					useful = append(useful, ix)
				}
			}
			if !info.empty && len(useful) > 0 {
				res, err := estimate.Appraise(useful, local, jq.Binds, estimate.Options{
					ShortRange: o.cfg.ShortRange,
					Governor:   ec.Governor(),
					Correction: o.correctionFor(tab),
				})
				if err != nil {
					return nil, nil, err
				}
				info.estIO, info.res = res.TotalCost, res
				if res.EmptyRange {
					info.empty = true
				} else if len(res.Estimates) > 0 {
					best := res.Estimates[0]
					info.card = best.RIDs
					// Exact when the range is and is the whole restriction.
					info.exact = best.Exact && best.Sargable == len(expr.Conjuncts(local))
					info.restrIx = best.Index
					info.restrLo, info.restrHi = best.Lo, best.Hi
					info.restrRIDs = best.RIDs
				}
			} else if !info.empty {
				// Unsargable restriction: the classic 10% guess, scaled
				// by any learned whole-table correction (join stage
				// actuals observe under the stage's index name, the
				// driver's tscan under "").
				info.card = float64(tab.Cardinality()) / 10 * o.correction("", tab)
				info.exact = false
			}
		}
		infos[i] = info
		jt := estimate.JoinTable{
			Name:  tab.Name,
			Card:  info.card,
			Rows:  float64(tab.Cardinality()),
			Pages: float64(tab.Pages()),
		}
		for _, p := range jq.Preds {
			for _, tc := range [2][2]int{{p.LT, p.LC}, {p.RT, p.RC}} {
				if tc[0] != i {
					continue
				}
				if jt.Distinct == nil {
					jt.Distinct = map[int]float64{}
				}
				if _, done := jt.Distinct[tc[1]]; done {
					continue
				}
				if ix := indexOnCol(tab, tc[1]); ix != nil {
					jt.Distinct[tc[1]] = estimate.DistinctEstimate(ix)
				}
			}
		}
		jts[i] = jt
	}
	return infos, jts, nil
}

// indexOnCol returns the first index whose leading column is col.
func indexOnCol(tab *catalog.Table, col int) *catalog.Index {
	for _, ix := range tab.Indexes {
		if ix.LeadingCol() == col {
			return ix
		}
	}
	return nil
}

// probeIndex finds an index usable for index-nested-loop probing of
// table t: one whose leading column is the inner column of a predicate
// connecting t to the already-joined set.
func probeIndex(jq *JoinQuery, t int, in func(int) bool) (*catalog.Index, int) {
	for _, p := range jq.Preds {
		if p.LT == t && in(p.RT) {
			if ix := indexOnCol(jq.Tables[t], p.LC); ix != nil {
				return ix, p.LC
			}
		}
		if p.RT == t && in(p.LT) {
			if ix := indexOnCol(jq.Tables[t], p.RC); ix != nil {
				return ix, p.RC
			}
		}
	}
	return nil, -1
}

// hasEquiPred reports whether an equi-join predicate connects table t
// to the already-joined set — the hashability condition for hj.
func hasEquiPred(jq *JoinQuery, t int, in func(int) bool) bool {
	for _, p := range jq.Preds {
		if p.LT == t && p.RT != t && in(p.RT) {
			return true
		}
		if p.RT == t && p.LT != t && in(p.LT) {
			return true
		}
	}
	return false
}

// hjBuildCost is the cheapest qualifying-row scan of the build side:
// the heap, or the restriction-index range (scan + fetches) when the
// local restriction bounds one and that costs less. Returns the build
// index name ("" for a heap build).
func hjBuildCost(info joinTableInfo, jt estimate.JoinTable) (float64, string) {
	buildIO, buildIx := jt.Pages, ""
	if info.restrIx != nil {
		model := estimate.CostModel{TablePages: int(jt.Pages), TableRows: int64(jt.Rows)}
		if c := model.FscanCost(info.restrRIDs, info.restrIx.Tree.AvgLeafEntries(), info.restrIx.Tree.Height()); c < buildIO {
			buildIO, buildIx = c, info.restrIx.Name
		}
	}
	return buildIO, buildIx
}

// chooseJoinOp costs the four stage operators for joining table t into
// an intermediate of inRows rows and returns the cheapest. Scan-based
// operators carry their comparison work in the shared CPU-in-I/O
// currency (estimate.JoinCPUCost), which is what separates hj's linear
// build+probe from nl's quadratic loop when their scan I/O ties.
//
//	nl   — one tracked heap scan of t (materialized in memory), then the
//	       outer×inner loop:  Pages(t) + cpu(inRows · Card(t))
//	hj   — the cheapest qualifying-row scan (heap or restriction-index
//	       range) hashed once, probed once per outer row:
//	       build + cpu(Card(t) + inRows); needs an equi-join predicate
//	inl  — a B-tree descent plus one fetch per key match, per outer row:
//	       inRows · (height + Rows/d)
//	ridx — inl probing filtered through a restriction-range RID bitmap:
//	       leafPages(range) + inRows · (height + (Rows/d)·sel)
func chooseJoinOp(jq *JoinQuery, infos []joinTableInfo, jts []estimate.JoinTable, t int, in func(int) bool, inRows, outRows float64) JoinStagePlan {
	sg := JoinStagePlan{Table: t, Operator: JoinOpNL, EstRows: outRows}
	jt := jts[t]
	sg.EstIO = jt.Pages + estimate.JoinCPUCost(inRows*jt.Card)
	if hasEquiPred(jq, t, in) {
		buildIO, buildIx := hjBuildCost(infos[t], jt)
		if hjCost := buildIO + estimate.JoinCPUCost(jt.Card+inRows); hjCost < sg.EstIO {
			sg.Operator, sg.Index, sg.EstIO = JoinOpHJ, buildIx, hjCost
		}
	}
	if psg, ok := chooseProbeOp(jq, infos, jts, t, in, inRows, outRows); ok && psg.EstIO < sg.EstIO {
		sg = psg
	}
	return sg
}

// chooseProbeOp costs the two order-preserving probe operators (inl,
// ridx) for joining table t. ok=false when no index can drive a probe —
// the stage then belongs to the scan-based operators, and an
// order-preserving plan through t is infeasible.
func chooseProbeOp(jq *JoinQuery, infos []joinTableInfo, jts []estimate.JoinTable, t int, in func(int) bool, inRows, outRows float64) (JoinStagePlan, bool) {
	ix, col := probeIndex(jq, t, in)
	if ix == nil {
		return JoinStagePlan{}, false
	}
	jt := jts[t]
	d := jt.Rows * estimate.DefaultJoinDistinctFraction
	if dd, ok := jt.Distinct[col]; ok && dd >= 1 {
		d = dd
	}
	if d < 1 {
		d = 1
	}
	matches := jt.Rows / d
	height := float64(ix.Tree.Height())
	sg := JoinStagePlan{Table: t, Operator: JoinOpINL, Index: ix.Name, EstRows: outRows,
		EstIO: inRows * (height + matches)}
	info := infos[t]
	if info.restrIx != nil && jt.Rows > 0 {
		sel := jt.Card / jt.Rows
		model := estimate.CostModel{TablePages: int(jt.Pages), TableRows: int64(jt.Rows)}
		bitmapCost := model.LeafPages(info.restrRIDs, info.restrIx.Tree.AvgLeafEntries()) +
			float64(info.restrIx.Tree.Height())
		if ridxCost := bitmapCost + inRows*(height+matches*sel); ridxCost < sg.EstIO {
			sg.Operator, sg.EstIO = JoinOpRIDX, ridxCost
		}
	}
	return sg, true
}

// planJoinRest orders and costs the stages for the tables not yet
// joined — the shared engine of initial planning and mid-flight
// re-optimization.
func (o *Optimizer) planJoinRest(jq *JoinQuery, infos []joinTableInfo, jts []estimate.JoinTable, chosen []int, curRows float64) []JoinStagePlan {
	rest := estimate.GreedyJoinRest(jts, joinEdges(jq), chosen, curRows)
	in := make([]bool, len(jq.Tables))
	for _, t := range chosen {
		in[t] = true
	}
	inSet := func(t int) bool { return in[t] }
	out := make([]JoinStagePlan, 0, len(rest))
	cur := curRows
	for _, r := range rest {
		sg := chooseJoinOp(jq, infos, jts, r.Table, inSet, cur, r.OutRows)
		out = append(out, sg)
		in[r.Table] = true
		cur = r.OutRows
	}
	return out
}

// planJoin builds the full static plan: the cheapest greedy plan, made
// sort-order-aware when the query carries an ORDER BY. When the cheap
// plan happens to deliver the requested order already, it is just
// marked Ordered (the sort is skipped for free); otherwise an
// order-preserving alternative — order-delivering driver index, probe
// stages only — competes with the avoided sort's cost as a tie-breaker:
// it wins whenever its extra I/O stays within estimate.JoinSortCost of
// the cheap plan's output.
func (o *Optimizer) planJoin(jq *JoinQuery, infos []joinTableInfo, jts []estimate.JoinTable) *JoinPlan {
	plan := o.planJoinBase(jq, infos, jts)
	if len(jq.OrderBy) == 0 {
		return plan
	}
	ot, localOrder, ok := joinOrderTable(jq)
	if !ok {
		return plan
	}
	if planDeliversOrder(jq, plan, ot, localOrder) {
		plan.Ordered = true
		return plan
	}
	oix := orderIndex(jq.Tables[ot], localOrder)
	if oix == nil {
		return plan
	}
	if alt := o.planJoinOrdered(jq, infos, jts, ot, oix); alt != nil {
		sortCost := estimate.JoinSortCost(plan.Stages[len(plan.Stages)-1].EstRows)
		if alt.EstIO <= plan.EstIO+sortCost {
			alt.Ordered = true
			return alt
		}
	}
	return plan
}

// planJoinBase builds the cheapest greedy plan: greedy driver choice,
// then planJoinRest for the remaining tables. The driver scans its
// table via the best restriction index when that beats a sequential
// scan.
func (o *Optimizer) planJoinBase(jq *JoinQuery, infos []joinTableInfo, jts []estimate.JoinTable) *JoinPlan {
	driver := 0
	for i := 1; i < len(jts); i++ {
		if jts[i].Card < jts[driver].Card {
			driver = i
		}
	}
	dsg := JoinStagePlan{Table: driver, Operator: "tscan", EstRows: jts[driver].Card, EstIO: jts[driver].Pages}
	if info := infos[driver]; info.restrIx != nil {
		model := estimate.CostModel{TablePages: int(jts[driver].Pages), TableRows: int64(jts[driver].Rows)}
		ixCost := model.FscanCost(info.restrRIDs, info.restrIx.Tree.AvgLeafEntries(), info.restrIx.Tree.Height())
		if ixCost < dsg.EstIO {
			dsg.Operator, dsg.Index, dsg.EstIO = "iscan", info.restrIx.Name, ixCost
		}
	}
	return o.finishJoinPlan(jq, &JoinPlan{Stages: append([]JoinStagePlan{dsg},
		o.planJoinRest(jq, infos, jts, []int{driver}, dsg.EstRows)...)})
}

// finishJoinPlan folds the whole-join output feedback into the stage
// estimates and totals the plan's cost. Past runs over the same table
// set measured how far the final output cardinality missed the last
// stage's estimate; the learned correction interpolates geometrically
// across the inner stages (full correction at the last stage, none at
// the driver) so intermediate estimates drift toward observed reality
// and the mid-flight divergence checks and re-plans start from better
// numbers. Neutral (factor 1) with feedback off or nothing learned.
func (o *Optimizer) finishJoinPlan(jq *JoinQuery, plan *JoinPlan) *JoinPlan {
	if n := len(plan.Stages); n > 1 {
		if corr := o.correction(joinFeedbackIndex, jq.Tables...); corr != 1 {
			for i := 1; i < n; i++ {
				plan.Stages[i].EstRows *= math.Pow(corr, float64(i)/float64(n-1))
			}
		}
	}
	for _, sg := range plan.Stages {
		plan.EstIO += sg.EstIO
	}
	return plan
}

// joinOrderTable resolves the query's ORDER BY to a single FROM table
// and that table's local column positions. ok=false when the order
// spans tables (no single index scan can deliver it) or there is no
// ORDER BY.
func joinOrderTable(jq *JoinQuery) (table int, local []int, ok bool) {
	if len(jq.OrderBy) == 0 {
		return 0, nil, false
	}
	offs := jq.Offsets()
	table = -1
	for _, p := range jq.OrderBy {
		ti := len(offs) - 1
		for ti > 0 && p < offs[ti] {
			ti--
		}
		if table == -1 {
			table = ti
		} else if ti != table {
			return 0, nil, false
		}
		local = append(local, p-offs[ti])
	}
	return table, local, true
}

// orderIndex finds an index of tab whose scan order delivers the local
// column order (ascending scan for ASC, reverse scan for DESC).
func orderIndex(tab *catalog.Table, local []int) *catalog.Index {
	for _, ix := range tab.Indexes {
		if ix.DeliversOrder(local) {
			return ix
		}
	}
	return nil
}

// planDeliversOrder reports whether a plan's execution already yields
// rows in the query's ORDER BY order: the driver is an index scan of
// the order table on an order-delivering index, and every later stage
// is an order-preserving probe (inl/ridx append matches per outer row,
// keeping the driver's row order; hj and nl rebuild the intermediate in
// inner-scan order and destroy it).
func planDeliversOrder(jq *JoinQuery, plan *JoinPlan, ot int, localOrder []int) bool {
	d := plan.Stages[0]
	if d.Table != ot || d.Operator != "iscan" {
		return false
	}
	ix := jq.Tables[ot].IndexByName(d.Index)
	if ix == nil || !ix.DeliversOrder(localOrder) {
		return false
	}
	for _, sg := range plan.Stages[1:] {
		if sg.Operator != JoinOpINL && sg.Operator != JoinOpRIDX {
			return false
		}
	}
	return true
}

// planJoinOrdered builds the order-preserving alternative: the order
// table drives via the order-delivering index (its restriction range
// when that index also bounds the local restriction, else a full
// index-order scan with the restriction applied per fetched row), and
// every remaining table joins by an order-preserving probe. Returns nil
// when some table has no probe index — the order cannot survive.
func (o *Optimizer) planJoinOrdered(jq *JoinQuery, infos []joinTableInfo, jts []estimate.JoinTable, ot int, oix *catalog.Index) *JoinPlan {
	info := infos[ot]
	jt := jts[ot]
	model := estimate.CostModel{TablePages: int(jt.Pages), TableRows: int64(jt.Rows)}
	dsg := JoinStagePlan{Table: ot, Operator: "iscan", Index: oix.Name, EstRows: jt.Card}
	if info.restrIx != nil && info.restrIx.Name == oix.Name {
		dsg.EstIO = model.FscanCost(info.restrRIDs, oix.Tree.AvgLeafEntries(), oix.Tree.Height())
	} else {
		dsg.EstIO = model.FscanCost(jt.Rows, oix.Tree.AvgLeafEntries(), oix.Tree.Height())
	}
	rest := estimate.GreedyJoinRest(jts, joinEdges(jq), []int{ot}, dsg.EstRows)
	in := make([]bool, len(jq.Tables))
	in[ot] = true
	inSet := func(t int) bool { return in[t] }
	stages := make([]JoinStagePlan, 0, len(rest)+1)
	stages = append(stages, dsg)
	cur := dsg.EstRows
	for _, r := range rest {
		sg, ok := chooseProbeOp(jq, infos, jts, r.Table, inSet, cur, r.OutRows)
		if !ok {
			return nil
		}
		stages = append(stages, sg)
		in[r.Table] = true
		cur = r.OutRows
	}
	return o.finishJoinPlan(jq, &JoinPlan{Stages: stages})
}

// joinFeedbackIndex is the synthetic index slot the whole-join output
// observation lives under, distinguishing it from per-stage slots.
const joinFeedbackIndex = "(output)"
