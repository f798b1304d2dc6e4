package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// Mid-stage re-optimization cadence: probe operators (inl/ridx) check
// their measured per-probe cost against the nested-loop alternative
// after this many outer rows, and every this-many thereafter.
const (
	joinReoptMinProbes  = 64
	joinReoptCheckEvery = 64
)

// JoinReoptFactor is the mid-flight re-optimization trigger of a
// dynamic multi-table retrieval: when a join stage's actual cardinality
// diverges from its estimate by more than this factor (either
// direction), the executor re-plans the remaining stages.
const JoinReoptFactor = 4.0

// RunJoin executes a multi-table retrieval. With a nil plan it runs
// dynamically: a greedy join order from corrected estimates, per-stage
// operator competition, and mid-flight re-optimization when a stage's
// actual cardinality diverges from its estimate past JoinReoptFactor.
// With a plan (from PlanJoin) it executes that plan as-is — no
// mid-flight re-optimization and no feedback observation, mirroring a
// pinned single-table replay.
func (o *Optimizer) RunJoin(ec *ExecCtx, jq *JoinQuery, plan *JoinPlan) Rows {
	rows, err := o.runJoin(ec, jq, plan)
	return o.deliver(ec, rows, err)
}

// PlanJoin returns the static greedy plan for jq without executing it —
// the baseline a dynamic run competes against (planner.PrepareJoin
// wraps this for the System R-style comparison).
func (o *Optimizer) PlanJoin(ec *ExecCtx, jq *JoinQuery) (*JoinPlan, error) {
	if err := jq.validate(); err != nil {
		return nil, err
	}
	infos, jts, err := o.gatherJoinInfo(ec, jq)
	if err != nil {
		return nil, err
	}
	return o.planJoin(jq, infos, jts), nil
}

// joinExec is the per-run state of one join execution.
type joinExec struct {
	o       *Optimizer
	ec      *ExecCtx
	jq      *JoinQuery
	infos   []joinTableInfo
	jts     []estimate.JoinTable
	offs    []int
	width   int
	kern    []*rowKernel // one per FROM table, see tableKernels
	st      *RetrievalStats
	trc     *tracer
	dynamic bool
	// ordered is the plan's order-preserving claim; the driver scans
	// descending when the query wants descending order.
	ordered bool
}

func (o *Optimizer) runJoin(ec *ExecCtx, jq *JoinQuery, fixed *JoinPlan) (Rows, error) {
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if err := jq.validate(); err != nil {
		return nil, err
	}
	infos, jts, err := o.gatherJoinInfo(ec, jq)
	if err != nil {
		return nil, err
	}
	st := RetrievalStats{Tactic: "join", QueryID: nextQueryID(), FinalListLen: -1}
	for i := range infos {
		st.EstimateIO += infos[i].estIO
	}
	trc := o.tracer(ec, &st)
	for i, tab := range jq.Tables {
		if infos[i].empty {
			trc.emit(TraceEvent{Kind: EvEmptyRange, Tactic: "join", Scan: tab.Name,
				Detail: "local restriction empty, end of data at once"})
			return &emptyRows{stats: st}, nil
		}
	}
	plan := fixed
	dynamic := fixed == nil
	if plan == nil {
		plan = o.planJoin(jq, infos, jts)
	}
	je := &joinExec{
		o: o, ec: ec, jq: jq, infos: infos, jts: jts,
		offs: jq.Offsets(), width: jq.Width(), st: &st, trc: trc,
		dynamic: dynamic, ordered: plan.Ordered,
	}
	je.kern = je.tableKernels()
	stages := append([]JoinStagePlan(nil), plan.Stages...)
	trc.emit(TraceEvent{
		Kind: EvJoinOrderChosen, Tactic: "join",
		Indexes:     stageTableNames(jq, stages),
		EstimatedIO: plan.EstIO,
		Detail:      plan.Describe(jq),
	})
	// Join retrievals are structurally ineligible for plan capture
	// (CapturePlan refuses them); announce that up front so cache-aware
	// callers and the metrics see the rejection. hj stages are called
	// out on their own grounds — their build tables hold run-time inner
	// state no replay could re-derive — so a future per-operator
	// join-freezing scheme keeps a reason to refuse them.
	captureDetail := "multi-table retrievals are never frozen"
	for _, sg := range stages {
		if sg.Operator == JoinOpHJ {
			captureDetail = "hj build side is re-derived at run time; multi-table retrievals are never frozen"
			break
		}
	}
	trc.emit(TraceEvent{
		Kind: EvPlanCaptureRejected, Tactic: "join",
		Detail: captureDetail,
	})

	in := make([]bool, len(jq.Tables))
	chosen := []int{stages[0].Table}
	in[stages[0].Table] = true
	cur, err := je.execDriver(&stages[0])
	if err != nil {
		return nil, err
	}

	// orderLive tracks whether the rows still arrive in the query's
	// ORDER BY order: true only for a plan whose driver delivers it, and
	// cleared the moment any executed stage runs an order-destroying
	// operator (hj/nl — whether planned, re-planned mid-flight, or a
	// probe fallback).
	orderLive := plan.Ordered
	replanned := false
	for si := 1; si < len(stages); si++ {
		// Stage boundary: if the intermediate cardinality has diverged
		// from the estimate past the factor, re-plan the remaining
		// tables (order and operators) from the observed count.
		prevEst := stages[si-1].EstRows
		actual := float64(len(cur))
		if je.dynamic && diverged(prevEst, actual) {
			rest := o.planJoinRest(jq, infos, jts, chosen, actual)
			if !sameStages(stages[si:], rest) {
				trc.emit(TraceEvent{
					Kind: EvJoinReoptimized, Tactic: "join",
					Indexes:     stageTableNames(jq, rest),
					EstimatedIO: prevEst, ActualIO: actual,
					Detail: fmt.Sprintf("intermediate %d rows vs %.0f estimated: replanned remaining stages", len(cur), prevEst),
				})
				stages = append(stages[:si:si], rest...)
				replanned = true
			}
		}
		sg := &stages[si]
		out, err := je.execStage(sg, cur, in)
		if err != nil {
			return nil, err
		}
		if replanned {
			// The stage just executed was (re)chosen mid-flight.
			st.JoinStages[len(st.JoinStages)-1].Reoptimized = true
			replanned = false
		}
		if op := st.JoinStages[len(st.JoinStages)-1].Operator; op != JoinOpINL && op != JoinOpRIDX {
			orderLive = false
		}
		in[sg.Table] = true
		chosen = append(chosen, sg.Table)
		cur = out
	}

	// Residual conjuncts — cross-table predicates that are not
	// equi-joins — apply once every table is bound.
	if residual := expr.NewFilter(jq.Residual, jq.Binds); residual != nil {
		kept := make([]expr.Row, 0, len(cur))
		for _, row := range cur {
			ok, err := residual.Eval(row)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		cur = kept
	}
	if len(jq.OrderBy) > 0 {
		if orderLive {
			// The surviving stage order satisfies the ORDER BY: the
			// final materialized sort is skipped.
			st.SortAvoided = true
			trc.emit(TraceEvent{
				Kind: EvJoinSortAvoided, Tactic: "join",
				Detail: fmt.Sprintf("plan order satisfies ORDER BY: materialized sort of %d rows skipped", len(cur)),
			})
		} else {
			sortRows(cur, jq.OrderBy, jq.OrderDesc)
		}
	}
	st.Strategy = joinStrategy(jq, st.JoinStages)
	if o.cfg.Feedback != nil && dynamic {
		for _, sg := range st.JoinStages {
			// Observations key on the catalog table name (via TableIdx;
			// Table may show an alias). hj stages observe under a
			// synthetic slot: their actual is join-output rows, which
			// must not skew the build index's restriction corrections.
			ixKey := sg.Index
			if sg.Operator == JoinOpHJ {
				ixKey = joinFeedbackHJ
			}
			o.cfg.Feedback.ObserveCardinality(jq.Tables[sg.TableIdx].Name, ixKey, sg.EstRows, float64(sg.ActualRows))
		}
		// Whole-join output feedback: the final output cardinality
		// (after the residual, which per-stage estimates never see)
		// against the last stage's estimate, under a synthetic key for
		// the table set. planJoin folds the learned correction back
		// into the next run's stage estimates.
		last := stages[len(stages)-1]
		o.cfg.Feedback.ObserveCardinality(joinFeedbackTable(jq), joinFeedbackIndex, last.EstRows, float64(len(cur)))
	}
	o.metrics.recordJoin(&st)
	return &materializedRows{rows: cur, projection: jq.Projection, limit: jq.Limit, st: st}, nil
}

// diverged reports whether actual is off the estimate by more than
// JoinReoptFactor in either direction (both sides clamped to >= 1 row
// so empty intermediates compare sanely).
func diverged(est, actual float64) bool {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	return actual > est*JoinReoptFactor || est > actual*JoinReoptFactor
}

// sameStages reports whether two stage sequences name the same tables,
// operators, and probe indexes.
func sameStages(a, b []JoinStagePlan) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Table != b[i].Table || a[i].Operator != b[i].Operator || a[i].Index != b[i].Index {
			return false
		}
	}
	return true
}

func stageTableNames(jq *JoinQuery, stages []JoinStagePlan) []string {
	out := make([]string, len(stages))
	for i, sg := range stages {
		out[i] = jq.nameOf(sg.Table)
	}
	return out
}

// joinStrategy renders the executed stages, e.g.
// "A:iscan(A_IX) -> B:inl(B_IX) -> C:nl".
func joinStrategy(jq *JoinQuery, stages []JoinStageStats) string {
	var b strings.Builder
	for i, sg := range stages {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(sg.Table)
		b.WriteString(":")
		b.WriteString(sg.Operator)
		if sg.Index != "" {
			fmt.Fprintf(&b, "(%s)", sg.Index)
		}
	}
	return b.String()
}

// recordStage appends one executed stage to the run's stats.
func (je *joinExec) recordStage(sg *JoinStagePlan, actualRows int, io storage.IOStats, reopt bool) {
	je.st.IO = je.st.IO.Add(io)
	je.st.JoinStages = append(je.st.JoinStages, JoinStageStats{
		Table:       je.jq.nameOf(sg.Table),
		TableIdx:    sg.Table,
		Operator:    sg.Operator,
		Index:       sg.Index,
		EstRows:     sg.EstRows,
		ActualRows:  actualRows,
		IO:          io.IOCost(),
		Reoptimized: reopt,
	})
}

// tableKernels prepares each FROM table's row kernel: its local
// restriction, needing the restriction's columns and the flat positions
// of the join predicates, Projection, OrderBy and Residual inside the
// table. Rows stay full-width with unread columns NULL, so flat offsets
// do not move.
func (je *joinExec) tableKernels() []*rowKernel {
	jq := je.jq
	flat := append(append(expr.Columns(jq.Residual), jq.Projection...), jq.OrderBy...)
	for _, p := range jq.Preds {
		flat = append(flat, je.offs[p.LT]+p.LC, je.offs[p.RT]+p.RC)
	}
	ks := make([]*rowKernel, len(jq.Tables))
	for t, tab := range jq.Tables {
		ks[t] = &rowKernel{filter: expr.NewFilter(jq.Local[t], jq.Binds)}
		if jq.Projection == nil {
			continue // every column is delivered
		}
		cols := expr.Columns(jq.Local[t])
		for _, c := range flat {
			cols = append(cols, c-je.offs[t]) // Cols drops what falls outside the table
		}
		ks[t].need = expr.Cols(len(tab.Columns), cols...)
	}
	return ks
}

// scanLocal streams the rows of table t that pass its local restriction
// to emit, charging tr: a heap scan when ix is nil, else ix's [lo, hi)
// range (reversed when desc) with a fetch and a re-filter per entry —
// the range may over-approximate the restriction, or not bound it at
// all. emit gets the kernel's view of the row, valid until it returns:
// what it keeps it must own (Row.Own, expr.CopyOwned).
func (je *joinExec) scanLocal(t int, ix *catalog.Index, lo, hi []byte, desc bool, tr *storage.Tracker, emit func(view expr.Row)) error {
	heap, k := je.jq.Tables[t].Heap, je.kern[t]
	var view expr.Row
	decide := func(rec []byte) error {
		keep, err := k.record(rec, &view)
		if keep {
			emit(view)
		}
		return err
	}
	if ix == nil {
		hc := heap.CursorTracked(tr)
		defer hc.Close()
		for {
			rec, _, ok, err := hc.Next()
			if err != nil || !ok {
				return err
			}
			if err := decide(rec); err != nil {
				return err
			}
		}
	}
	cur, err := newEntryCursor(ix.Tree, lo, hi, desc, tr)
	if err != nil {
		return err
	}
	defer cur.Close()
	for {
		_, r, ok, err := cur.Next()
		if err != nil || !ok {
			return err
		}
		rec, err := heap.GetTracked(r, tr)
		if err != nil {
			return err
		}
		if err := decide(rec); err != nil {
			return err
		}
	}
}

// execDriver runs stage 0: a single-table scan of the driver table
// under its local restriction, emitting full-width flat rows.
func (je *joinExec) execDriver(sg *JoinStagePlan) ([]expr.Row, error) {
	t := sg.Table
	tab := je.jq.Tables[t]
	off := je.offs[t]
	m := newMeter(je.ec)
	je.trc.emit(TraceEvent{
		Kind: EvJoinStageStarted, Tactic: "join", Scan: sg.Operator,
		Indexes: []string{tab.Name, sg.Index}, EstimatedIO: sg.EstRows,
		Detail: "driver scan",
	})
	var (
		ix     *catalog.Index
		lo, hi []byte
	)
	if sg.Operator == "iscan" {
		if ix = tab.IndexByName(sg.Index); ix == nil {
			return nil, fmt.Errorf("core: join driver index %s.%s not found", tab.Name, sg.Index)
		}
		// The restriction bounds apply only when this index derived
		// them; an order-delivering driver on a different index scans
		// the full key range. A descending ORDER BY turns an
		// order-delivering driver scan around.
		if info := je.infos[t]; info.restrIx != nil && info.restrIx.Name == sg.Index {
			lo, hi = info.restrLo, info.restrHi
		}
	}
	var out []expr.Row
	err := je.scanLocal(t, ix, lo, hi, je.ordered && je.jq.OrderDesc, m.tr, func(view expr.Row) {
		fr := make(expr.Row, je.width)
		expr.CopyOwned(fr[off:], view)
		out = append(out, fr)
	})
	if err != nil {
		return nil, err
	}
	je.recordStage(sg, len(out), m.io(), false)
	return out, nil
}

// stagePred is one join predicate applicable at a stage: the flat
// position of the already-bound side and the inner table's local
// column.
type stagePred struct {
	outerPos int
	innerCol int
}

// stagePreds collects the predicates connecting table t to the
// already-joined set.
func (je *joinExec) stagePreds(t int, in []bool) []stagePred {
	var out []stagePred
	for _, p := range je.jq.Preds {
		if p.LT == t && p.RT != t && in[p.RT] {
			out = append(out, stagePred{outerPos: je.offs[p.RT] + p.RC, innerCol: p.LC})
		} else if p.RT == t && p.LT != t && in[p.LT] {
			out = append(out, stagePred{outerPos: je.offs[p.LT] + p.LC, innerCol: p.RC})
		}
	}
	return out
}

// predsMatch evaluates every connecting predicate; NULL on either side
// never matches (SQL two-valued semantics, same as expr.Cmp).
func predsMatch(preds []stagePred, outer, inner expr.Row) bool {
	for _, sp := range preds {
		a, b := outer[sp.outerPos], inner[sp.innerCol]
		if a.IsNull() || b.IsNull() || expr.Compare(a, b) != 0 {
			return false
		}
	}
	return true
}

// execStage runs one inner join stage with its planned operator,
// falling back from a probe operator to nested-loop mid-stage when the
// measured per-probe cost projects past the factor.
func (je *joinExec) execStage(sg *JoinStagePlan, outer []expr.Row, in []bool) ([]expr.Row, error) {
	t := sg.Table
	tab := je.jq.Tables[t]
	preds := je.stagePreds(t, in)
	je.trc.emit(TraceEvent{
		Kind: EvJoinStageStarted, Tactic: "join", Scan: sg.Operator,
		Indexes: []string{tab.Name, sg.Index}, EstimatedIO: sg.EstRows,
		Detail: fmt.Sprintf("%d outer rows", len(outer)),
	})
	switch sg.Operator {
	case JoinOpNL:
		out, io, err := je.execNL(t, preds, outer)
		if err != nil {
			return nil, err
		}
		je.recordStage(sg, len(out), io, false)
		return out, nil
	case JoinOpHJ:
		out, io, err := je.execHJ(sg, preds, outer)
		if err != nil {
			return nil, err
		}
		je.recordStage(sg, len(out), io, false)
		return out, nil
	case JoinOpINL, JoinOpRIDX:
		m := newMeter(je.ec)
		var filter *rid.CompressedBitmap
		if sg.Operator == JoinOpRIDX {
			var err error
			filter, err = je.buildBitmap(t, &m)
			if err != nil {
				return nil, err
			}
		}
		out, fellBack, err := je.execProbe(sg, preds, outer, filter, &m)
		if err != nil {
			return nil, err
		}
		if !fellBack {
			je.recordStage(sg, len(out), m.io(), false)
			return out, nil
		}
		// Probing is costing more than a single scan of the inner:
		// abandon it (the spent I/O stays attributed) and redo the
		// stage with a scan-based operator — a hash join over the same
		// connecting predicates (probe stages always have at least one),
		// whose build scan costs what the nested loop's would while its
		// probe phase is linear instead of quadratic.
		je.trc.emit(TraceEvent{
			Kind: EvJoinReoptimized, Tactic: "join", Scan: sg.Operator,
			Indexes:  []string{tab.Name, sg.Index},
			ActualIO: m.cost(),
			Detail:   fmt.Sprintf("probe cost projects past %.0fx a one-scan alternative: falling back to hj", JoinReoptFactor),
		})
		spent := m.io()
		sg.Operator, sg.Index = JoinOpHJ, ""
		out, io, err := je.execHJ(sg, preds, outer)
		if err != nil {
			return nil, err
		}
		je.recordStage(sg, len(out), spent.Add(io), true)
		return out, nil
	default:
		return nil, fmt.Errorf("core: unknown join operator %q", sg.Operator)
	}
}

// execNL joins by scanning the inner heap once, keeping rows that pass
// the local restriction in memory, and looping over outer × inner.
func (je *joinExec) execNL(t int, preds []stagePred, outer []expr.Row) ([]expr.Row, storage.IOStats, error) {
	m := newMeter(je.ec)
	off := je.offs[t]
	var inner []expr.Row
	if err := je.scanLocal(t, nil, nil, nil, false, m.tr, func(view expr.Row) { inner = append(inner, view.Own(nil)) }); err != nil {
		return nil, m.io(), err
	}
	var out []expr.Row
	for _, orow := range outer {
		for _, irow := range inner {
			if predsMatch(preds, orow, irow) {
				out = append(out, combineRows(orow, irow, off))
			}
		}
	}
	return out, m.io(), nil
}

// buildBitmap scans the inner table's restriction-index range and
// packs the qualifying RIDs into an exact compressed bitmap — the
// RID-intersect half of the ridx operator.
func (je *joinExec) buildBitmap(t int, m *meter) (*rid.CompressedBitmap, error) {
	info := je.infos[t]
	if info.restrIx == nil {
		return nil, fmt.Errorf("core: ridx stage on %s without a restriction index", je.jq.Tables[t].Name)
	}
	cur, err := info.restrIx.Tree.SeekTracked(info.restrLo, info.restrHi, m.tr)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var rids []storage.RID
	for {
		_, r, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		rids = append(rids, r)
	}
	return rid.FromRIDs(rids), nil
}

// probeWidth resolves a join probe's worker width. Probes fan out only
// under adaptive mode — the static knob never touched joins, and keeps
// not touching them — and only when there are outer rows to split.
func (je *joinExec) probeWidth(scan string, estIO float64, outer int) int {
	if !je.o.cfg.AdaptiveParallelism || je.o.cfg.effectiveWorkers() < 2 || outer < 2 {
		return 1
	}
	return decideWidth(je.o.cfg, je.ec, je.trc, scan, estIO)
}

// execProbe joins by probing the inner index once per outer row,
// optionally filtering candidate RIDs through a restriction bitmap
// before fetching. Outer rows are processed in rounds of
// width·joinReoptCheckEvery: within a round each worker probes a
// contiguous chunk on its own tracker and the outputs concatenate in
// chunk order, so every width delivers the sequential probe order; at
// width 1 the round is the sequential loop itself, inline on the stage
// meter. Between rounds the mid-stage checkpoint (Section 6's direct
// competition, applied to a join stage) extrapolates the remaining probe
// cost from what probing has charged so far and compares it to scanning
// the inner once. Returns fellBack=true when it decides the scan would
// be cheaper (partial output discarded).
func (je *joinExec) execProbe(sg *JoinStagePlan, preds []stagePred, outer []expr.Row, filter *rid.CompressedBitmap, m *meter) (_ []expr.Row, fellBack bool, _ error) {
	t := sg.Table
	tab := je.jq.Tables[t]
	ix := tab.IndexByName(sg.Index)
	if ix == nil {
		return nil, false, fmt.Errorf("core: join probe index %s.%s not found", tab.Name, sg.Index)
	}
	probeCol := ix.LeadingCol()
	probe := -1
	for i, sp := range preds {
		if sp.innerCol == probeCol {
			probe = i
			break
		}
	}
	if probe == -1 {
		return nil, false, fmt.Errorf("core: no join predicate drives probe index %s.%s", tab.Name, sg.Index)
	}
	off := je.offs[t]
	// Appraised probe work: one descent plus roughly one fetch per
	// outer row.
	width := je.probeWidth("JoinProbe", float64(len(outer))*(float64(ix.Tree.Height())+1), len(outer))
	round := width * joinReoptCheckEvery
	// outs[0] is the stage output itself: worker 0 appends to it in
	// place, later workers' rows are appended behind it at the barrier.
	outs := make([][]expr.Row, width)
	views := make([]expr.Row, width) // each worker's kernel scratch
	var chunk []expr.Row
	var k int
	work := func(i int, tr *storage.Tracker, stop *atomic.Bool) error {
		for _, orow := range chunk[i*len(chunk)/k : (i+1)*len(chunk)/k] {
			if stop.Load() {
				break
			}
			var err error
			if outs[i], err = je.probeOne(outs[i], orow, preds, probe, tab, ix, je.kern[t], &views[i], off, filter, tr); err != nil {
				return err
			}
		}
		return nil
	}
	for start := 0; start < len(outer); start += round {
		if je.dynamic && start >= joinReoptMinProbes {
			avg := m.cost() / float64(start)
			remaining := float64(len(outer) - start)
			if avg*remaining > JoinReoptFactor*je.jts[t].Pages {
				return nil, true, nil
			}
		}
		chunk = outer[start:min(start+round, len(outer))]
		k = min(width, len(chunk))
		if err := fanOut(m.tr, k, work); err != nil {
			return nil, false, err
		}
		for i := 1; i < k; i++ {
			outs[0] = append(outs[0], outs[i]...)
			outs[i] = outs[i][:0]
		}
	}
	return outs[0], false, nil
}

// probeOne is the inl/ridx probe kernel: it probes the inner index for
// one outer row, appending matches to out. A fetched record is decided
// through the inner table's kernel k into the worker's scratch view, and
// materialized — straight into the combined row — only if it matches.
// All charged I/O goes to tr — a worker's own tracker, or the stage
// meter's at width 1.
func (je *joinExec) probeOne(out []expr.Row, orow expr.Row, preds []stagePred, probe int, tab *catalog.Table, ix *catalog.Index, k *rowKernel, view *expr.Row, off int, filter *rid.CompressedBitmap, tr *storage.Tracker) ([]expr.Row, error) {
	v := orow[preds[probe].outerPos]
	if v.IsNull() {
		return out, nil
	}
	lo := expr.EncodeKey(nil, v)
	hi := expr.KeySuccessor(lo)
	cur, err := ix.Tree.SeekTracked(lo, hi, tr)
	if err != nil {
		return out, err
	}
	defer cur.Close()
	for {
		_, r, ok, err := cur.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		if filter != nil && !filter.MayContain(r) {
			continue
		}
		rec, err := tab.Heap.GetTracked(r, tr)
		if err != nil {
			return out, err
		}
		pass, err := k.record(rec, view)
		if err != nil {
			return out, err
		}
		if pass && predsMatch(preds, orow, *view) {
			fr := orow.Clone()
			expr.CopyOwned(fr[off:], *view)
			out = append(out, fr)
		}
	}
}

// combineRows binds an inner row into a copy of the outer flat row at
// the inner table's offset.
func combineRows(outer, inner expr.Row, off int) expr.Row {
	fr := make(expr.Row, len(outer))
	copy(fr, outer)
	copy(fr[off:off+len(inner)], inner)
	return fr
}
