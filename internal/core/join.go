package core

import (
	"fmt"
	"slices"
	"strings"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// joinReoptCheckEvery is the mid-stage re-optimization cadence: probe
// operators (inl/ridx) check their measured per-probe cost against a
// one-scan alternative after this many outer rows, and every this-many
// thereafter. It is also the size of a stage's full round.
const joinReoptCheckEvery = 64

// JoinReoptFactor is the mid-flight re-optimization trigger of a
// dynamic multi-table retrieval: when a join stage's actual cardinality
// diverges from its estimate by more than this factor (either
// direction), the executor re-plans the remaining stages.
const JoinReoptFactor = 4.0

// RunJoin executes a multi-table retrieval as one pull pipeline
// (DESIGN.md, "Dynamic join optimization"): the returned Rows is lazy, a
// LIMIT or an early Close stops every stage where it stands. With a nil
// plan it runs dynamically: a greedy join order from corrected estimates,
// per-stage operator competition, every table read by a dynamic
// single-table retrieval, and mid-flight re-optimization. With a plan
// (from PlanJoin) the same pipeline executes that plan as-is — pinned
// table accesses, stage at a time unless a LIMIT is set (see breaks), no
// re-optimization, no feedback observation — mirroring a pinned
// single-table replay.
func (o *Optimizer) RunJoin(ec *ExecCtx, jq *JoinQuery, plan *JoinPlan) Rows {
	rows, err := o.runJoin(ec, jq, plan)
	return o.deliver(ec, rows, err)
}

// PlanJoin returns the static greedy plan for jq without executing it —
// the baseline a dynamic run competes against (planner.PrepareJoin
// wraps this for the System R-style comparison).
func (o *Optimizer) PlanJoin(ec *ExecCtx, jq *JoinQuery) (*JoinPlan, error) {
	jr, err := o.newJoinRun(ec, jq)
	if err != nil {
		return nil, err
	}
	return o.planJoin(jq, jr.infos, jr.jts), nil
}

func (o *Optimizer) runJoin(ec *ExecCtx, jq *JoinQuery, fixed *JoinPlan) (Rows, error) {
	jr, err := o.newJoinRun(ec, jq)
	if err != nil {
		return nil, err
	}
	for i, tab := range jq.Tables {
		if jr.infos[i].empty {
			jr.trc.emit(TraceEvent{Kind: EvEmptyRange, Tactic: "join", Scan: tab.Name,
				Detail: "local restriction empty, end of data at once"})
			return &emptyRows{stats: jr.st}, nil
		}
	}
	plan := fixed
	if plan == nil {
		plan = o.planJoin(jq, jr.infos, jr.jts)
	} else if len(plan.Stages) != len(jq.Tables) {
		return nil, fmt.Errorf("core: join plan has %d stages for %d tables", len(plan.Stages), len(jq.Tables))
	}
	jr.begin(plan, fixed == nil)
	return jr, nil
}

// rowSource is what a pipeline stage pulls its input from: another
// stage, a table access (Rows), materialized rows (*rowQueue), a rowFunc.
type rowSource interface {
	Next() (expr.Row, bool, error)
}

type rowFunc func() (expr.Row, bool, error)

func (f rowFunc) Next() (expr.Row, bool, error) { return f() }

// joinRun is one multi-table retrieval: the Rows RunJoin returns and the
// pull pipeline behind it. Rows travel as pipeline rows — the carried
// columns of every table bound so far, in join order — so a table
// access's narrow rows enter as they are; the last stage writes the
// delivered row itself unless a residual or a pending sort needs more.
type joinRun struct {
	o     *Optimizer
	ec    *ExecCtx
	jq    *JoinQuery
	infos []joinTableInfo
	jts   []estimate.JoinTable
	offs  []int
	keep  [][]int // per table, the columns the join carries
	proj  []int   // delivered flat positions (the whole flat row for SELECT *)
	loc   []int   // flat position -> position in a pipeline row; -1 while its table is unbound
	rowLn int     // pipeline row length so far
	st    RetrievalStats
	trc   *tracer

	plan    []JoinStagePlan // as planned; re-optimization revises the unexecuted tail
	dynamic bool
	// ordered is the plan's order-preserving claim. Execution keeps it:
	// only an hj built on the outer rows loses their order (see build).
	ordered bool
	direct  bool // no residual, no pending sort: the last stage writes delivered rows

	stages    []*joinStage // executed, the driver first
	top       rowSource    // nil until the first Next builds the pipeline
	exhausted bool         // top reached end of data: actuals are whole
	closed    bool
	err       error
}

// newJoinRun validates jq and appraises its tables.
func (o *Optimizer) newJoinRun(ec *ExecCtx, jq *JoinQuery) (*joinRun, error) {
	if err := jq.validate(); err != nil {
		return nil, err
	}
	infos, jts, err := o.gatherJoinInfo(ec, jq)
	if err != nil {
		return nil, err
	}
	jr := &joinRun{o: o, ec: ec, jq: jq, infos: infos, jts: jts, offs: jq.Offsets(),
		keep: make([][]int, len(jq.Tables)), proj: jq.Projection, loc: make([]int, jq.Width()),
		st: RetrievalStats{Tactic: "join", QueryID: nextQueryID(), FinalListLen: -1}}
	for i := range infos {
		jr.st.EstimateIO += infos[i].estIO
	}
	jr.trc = o.tracer(ec, &jr.st, nil)
	// A table's carried columns: all for SELECT *, else those the
	// projection, the order, the residual and the join predicates read.
	flat := append(append(expr.Columns(jq.Residual), jq.Projection...), jq.OrderBy...)
	for _, p := range jq.Preds {
		flat = append(flat, jr.offs[p.LT]+p.LC, jr.offs[p.RT]+p.RC)
	}
	for p := range jr.loc {
		jr.loc[p] = -1
		if jq.Projection == nil {
			jr.proj = append(jr.proj, p)
		}
	}
	for t, tab := range jq.Tables {
		jr.keep[t] = []int{}
		for c := range tab.Columns {
			if jq.Projection == nil || slices.Contains(flat, jr.offs[t]+c) {
				jr.keep[t] = append(jr.keep[t], c)
			}
		}
	}
	return jr, nil
}

// begin adopts the plan and announces it.
func (jr *joinRun) begin(plan *JoinPlan, dynamic bool) {
	jq := jr.jq
	jr.plan, jr.dynamic, jr.ordered = slices.Clone(plan.Stages), dynamic, plan.Ordered
	jr.direct = jq.Residual == nil && (len(jq.OrderBy) == 0 || jr.ordered)
	jr.trc.emit(TraceEvent{
		Kind: EvJoinOrderChosen, Tactic: "join",
		Indexes:     stageTableNames(jq, jr.plan),
		EstimatedIO: plan.EstIO,
		Detail:      plan.Describe(jq),
	})
	// CapturePlan refuses joins; announce it up front so cache-aware
	// callers and the metrics see the rejection.
	jr.trc.emit(TraceEvent{Kind: EvPlanCaptureRejected, Tactic: "join", Detail: "multi-table retrievals are never frozen"})
	if jr.ordered {
		jr.st.SortAvoided = true
		jr.trc.emit(TraceEvent{Kind: EvJoinSortAvoided, Tactic: "join",
			Detail: "plan order satisfies ORDER BY and every stage keeps it: no materialized sort"})
	}
}

// breaks reports whether the boundary below stage si is a pipeline
// breaker. In a dynamic run re-optimization needs a count there that it
// does not have: behind an inexact cardinality (a driver whose estimate
// is not exact, any join output). A fixed plan is the freezing
// executor's baseline and runs stage at a time as one, each table read
// whole before the next is touched, unless a LIMIT wants its rows early.
func (jr *joinRun) breaks(si int) bool {
	if !jr.dynamic {
		return si > 0 && jr.jq.Limit == 0
	}
	return si > 1 || si == 1 && !jr.infos[jr.plan[0].Table].exact
}

// streams reports whether stage si's rows reach the consumer as they
// are produced: no breaker and no sort stands in between.
func (jr *joinRun) streams(si int) bool {
	for above := si + 1; above < len(jr.plan); above++ {
		if jr.breaks(above) {
			return false
		}
	}
	return len(jr.jq.OrderBy) == 0 || jr.ordered
}

// access starts the single-table retrieval of table t — the driver, an
// hj side, an nl inner — the way every other query reads a table: in a
// dynamic run through Optimizer.run, on the appraisal gatherJoinInfo
// paid for; under a fixed plan pinned to the plan's scan. Rows that
// stream to the consumer are retrieved under the join's goal (LIMIT and
// EXISTS are fast-first), rows drained whole under total-time.
func (jr *joinRun) access(t int, index string, streams, ordered bool) (Rows, error) {
	jq := jr.jq
	q := &Query{Table: jq.Tables[t], Restriction: jq.Local[t], Binds: jq.Binds, Projection: jr.keep[t],
		Goal: GoalTotalTime, join: &joinAccess{res: &jr.infos[t].res, trc: jr.trc}}
	if streams {
		q.Goal, q.Control = jq.Goal, jq.Control
		if jq.Limit > 0 && q.Control == ControlNone {
			q.Control = ControlLimit
		}
	}
	if ordered {
		_, q.OrderBy, _ = joinOrderTable(jq)
		q.OrderDesc = jq.OrderDesc
	}
	if jr.dynamic {
		return jr.o.run(jr.ec, q)
	}
	p := &Plan{Tactic: "tscan"}
	if index != "" {
		p = &Plan{Tactic: "fscan", Indexes: []string{index}}
	}
	return jr.o.runPlan(jr.ec, q, p)
}

// start builds the pipeline, stage by stage. At a breaker the rows so
// far are materialized and counted, and in a dynamic run a count off its
// estimate past the factor re-plans the remaining tables, order and
// operators. Everything else streams.
func (jr *joinRun) start() error {
	jq := jr.jq
	for si := 0; si < len(jr.plan); si++ {
		upRows, reopt := 0.0, false
		if si > 0 {
			upRows = jr.plan[si-1].EstRows
		}
		if jr.breaks(si) {
			rows, err := drainRows(jr.top)
			if err != nil {
				return err
			}
			jr.top, upRows = &queue[expr.Row]{rows: rows}, float64(len(rows))
			if est := jr.plan[si-1].EstRows; jr.dynamic && diverged(est, upRows) {
				chosen := make([]int, si)
				for i, sg := range jr.plan[:si] {
					chosen[i] = sg.Table
				}
				rest := jr.o.planJoinRest(jq, jr.infos, jr.jts, chosen, upRows)
				if !sameStages(jr.plan[si:], rest) {
					jr.trc.emit(TraceEvent{
						Kind: EvJoinReoptimized, Tactic: "join",
						Indexes:     stageTableNames(jq, rest),
						EstimatedIO: est, ActualIO: upRows,
						Detail: fmt.Sprintf("intermediate %d rows vs %.0f estimated: replanned remaining stages", len(rows), est),
					})
					jr.plan, reopt = append(jr.plan[:si:si], rest...), true
				}
			}
		}
		sg := jr.plan[si]
		s := &joinStage{jr: jr, si: si, sg: sg, up: jr.top, upRows: upRows, reopt: reopt, m: newMeter(jr.ec), base: jr.rowLn}
		jr.stages = append(jr.stages, s)
		if err := s.open(); err != nil {
			return err
		}
		jr.top = s
	}
	// Residual conjuncts — cross-table predicates that are not
	// equi-joins — apply once every table is bound, on a reused flat view
	// of each pipeline row (they address flat positions). An ORDER BY the
	// plan does not deliver is the one other materialization point.
	if f := expr.NewFilter(jq.Residual, jq.Binds); f != nil {
		up, cols, flat := jr.top, expr.Columns(jq.Residual), make(expr.Row, len(jr.loc))
		jr.top = rowFunc(func() (expr.Row, bool, error) {
			for {
				row, ok, err := up.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				for _, c := range cols {
					flat[c] = row[jr.loc[c]]
				}
				if keep, err := f.Eval(flat); err != nil || keep {
					return row, keep, err
				}
			}
		})
	}
	if len(jq.OrderBy) > 0 && !jr.ordered {
		rows, err := drainRows(jr.top)
		if err != nil {
			return err
		}
		by := make([]int, len(jq.OrderBy))
		for i, p := range jq.OrderBy {
			by[i] = jr.loc[p]
		}
		sortRows(rows, by, jq.OrderDesc)
		jr.top = &queue[expr.Row]{rows: rows}
	}
	if !jr.direct { // what is delivered, as positions of the pipeline row
		jr.proj = slices.Clone(jr.proj)
		for i, p := range jr.proj {
			jr.proj[i] = jr.loc[p]
		}
	}
	return nil
}

func drainRows(src rowSource) (rows []expr.Row, _ error) {
	for {
		row, ok, err := src.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, row)
	}
}

func (jr *joinRun) Next() (expr.Row, bool, error) {
	if jr.err != nil || jr.closed {
		return nil, false, jr.err
	}
	err := jr.ec.Err()
	if err == nil && jr.top == nil {
		err = jr.start()
	}
	if err != nil {
		return nil, false, jr.fail(err)
	}
	row, ok, err := jr.top.Next()
	if err != nil {
		return nil, false, jr.fail(err)
	}
	if !ok {
		jr.exhausted = true
		jr.finish()
		return nil, false, nil
	}
	if !jr.direct {
		row = projectRow(row, jr.proj)
	}
	jr.st.RowsDelivered++
	if jr.jq.Limit > 0 && jr.st.RowsDelivered >= jr.jq.Limit {
		jr.finish() // forceful early termination: every stage stops where it stands
	}
	return row, true, nil
}

// Close stops the pipeline where it stands; safe at any point.
func (jr *joinRun) Close() error {
	jr.finish()
	return nil
}

// Stats is valid at any time. Before the run ends, JoinStages lists the
// stages built so far with the rows each has produced so far (a table
// access's I/O joins its stage's when the access finishes). ActualRows
// is a whole-stage actual only if the run reached end of data.
func (jr *joinRun) Stats() RetrievalStats {
	jr.sync()
	return jr.st
}

// sync rebuilds the stats from the stages, as executed so far.
func (jr *joinRun) sync() {
	jr.st.IO, jr.st.JoinStages = storage.IOStats{}, make([]JoinStageStats, len(jr.stages))
	for i, s := range jr.stages {
		io := s.m.io().Add(s.inIO)
		jr.st.IO = jr.st.IO.Add(io)
		jr.st.JoinStages[i] = JoinStageStats{
			Table: jr.jq.nameOf(s.sg.Table), TableIdx: s.sg.Table, Operator: s.sg.Operator, Index: s.sg.Index,
			EstRows: s.sg.EstRows, ActualRows: s.rows, IO: io.IOCost(), Reoptimized: s.reopt}
	}
	jr.st.Strategy = joinStrategy(jr.jq, jr.st.JoinStages)
}

// finish ends the run exactly once, however it ends — end of data, the
// LIMIT, Close, an error: table accesses are closed (every pin
// released), the stats become final, the join is counted. Feedback
// learns only from whole actuals: a run that reached end of data.
func (jr *joinRun) finish() {
	if jr.closed {
		return
	}
	jr.closed = true
	for _, s := range jr.stages {
		s.closeIn()
	}
	jr.sync()
	if fb := jr.o.cfg.Feedback; fb != nil && jr.dynamic && jr.exhausted {
		for _, sg := range jr.st.JoinStages {
			// Keyed on the catalog table name (Table may show an alias); hj
			// under a synthetic slot, its actual being join-output rows.
			ixKey := sg.Index
			if sg.Operator == JoinOpHJ {
				ixKey = joinFeedbackHJ
			}
			fb.ObserveCardinality(jr.jq.Tables[sg.TableIdx].Name, ixKey, sg.EstRows, float64(sg.ActualRows))
		}
		// The whole join: its output (after the residual, which no stage
		// estimate sees) against the last stage's estimate, under a key for
		// the table set; planJoin folds the correction into the next run.
		fb.ObserveCardinality(joinFeedbackTable(jr.jq), joinFeedbackIndex, jr.plan[len(jr.plan)-1].EstRows, float64(jr.st.RowsDelivered))
	}
	jr.o.metrics.recordJoin(&jr.st)
}

// fail latches err and unwinds. A cancellation is announced and counted
// once per ExecCtx, whichever layer saw it first: a table access that
// was unwound itself has already done both.
func (jr *joinRun) fail(err error) error {
	jr.err = err
	jr.finish()
	if IsCancellation(err) {
		if !slices.ContainsFunc(jr.st.Events, func(ev TraceEvent) bool { return ev.Kind == EvQueryCancelled }) {
			jr.trc.emit(TraceEvent{Kind: EvQueryCancelled, Tactic: "join", ActualIO: float64(jr.st.IO.IOCost()), Detail: err.Error()})
		}
		if jr.ec.markCancelRecorded() {
			jr.o.metrics.recordCancellation(err)
		}
	}
	return err
}

// diverged reports whether actual is off the estimate by more than
// JoinReoptFactor in either direction (both sides clamped to >= 1 row
// so empty intermediates compare sanely).
func diverged(est, actual float64) bool {
	est, actual = max(est, 1), max(actual, 1)
	return actual > est*JoinReoptFactor || est > actual*JoinReoptFactor
}

// sameStages reports whether two stage sequences name the same tables,
// operators, and probe indexes.
func sameStages(a, b []JoinStagePlan) bool {
	return slices.EqualFunc(a, b, func(x, y JoinStagePlan) bool {
		return x.Table == y.Table && x.Operator == y.Operator && x.Index == y.Index
	})
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

// stagePred is one join predicate applicable at a stage: the position of
// the already-bound side in the outer pipeline row and of the stage
// table's side in its inner row.
type stagePred struct {
	outerPos int
	innerCol int
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

// joinStage is one stage of the pipeline, a pull operator over the
// stages below it: Next hands out joined rows, running a round — pull up
// to joinReoptCheckEvery upstream rows, then join them — whenever it has
// none left. Stage 0, the driver, is its table access and nothing else.
type joinStage struct {
	jr     *joinRun
	si     int
	sg     JoinStagePlan // as executed: a mid-stage fallback rewrites the operator
	up     rowSource     // the rows joined so far; nil for the driver
	upRows float64       // how many: counted behind a breaker, else the estimate
	in     Rows          // the running table access: the driver, an hj side, an nl inner
	inIO   storage.IOStats
	m      meter // probe and bitmap I/O
	reopt  bool
	rows   int // produced so far

	base  int         // the outer pipeline row's length
	preds []stagePred // connecting the stage's table to the outer row
	cols  []int       // the output row: >= 0 a position of the outer row, else ^position of the inner row
	view  bool        // inner rows are kernel views of the table, whose strings a kept row copies

	// inl / ridx: one index probe per outer row.
	ix     *catalog.Index
	probe  int // the predicate driving the probe
	filter *rid.CompressedBitmap
	k      *rowKernel
	probed int

	// hj / nl: one side built, the other streamed past it.
	ht      *hashTable
	onOuter bool  // built on the outer rows: up becomes the table's access, streaming
	keys    []int // the streamed side's key columns

	chunk []expr.Row // this round's upstream rows
	w     joinWorker
	out   rowQueue
	done  bool
}

// joinWorker is the probe kernels' scratch, reused across rounds.
type joinWorker struct {
	view expr.Row // the kernel's decode target
	key  []byte   // encoded probe key and its successor, or the hash key
}

// shape lays the stage out for the inner rows its operator sees — kernel
// views of the whole table (a probe) or the narrow rows of the table's
// access (hj, nl): the connecting predicates, and where each column of
// the output row comes from, the delivered row on a direct run's last stage.
func (s *joinStage) shape(view bool) {
	jr, t := s.jr, s.sg.Table
	off, ncol := jr.offs[t], len(jr.jq.Tables[t].Columns)
	inner := func(c int) int {
		if view {
			return c
		}
		return slices.Index(jr.keep[t], c)
	}
	outer := func(ot, oc int) (int, bool) {
		pos := jr.loc[jr.offs[ot]+oc]
		return pos, ot != t && pos >= 0 && pos < s.base
	}
	s.view, s.preds, s.cols = view, s.preds[:0], s.cols[:0]
	for _, p := range jr.jq.Preds {
		if pos, ok := outer(p.RT, p.RC); ok && p.LT == t {
			s.preds = append(s.preds, stagePred{outerPos: pos, innerCol: inner(p.LC)})
		} else if pos, ok := outer(p.LT, p.LC); ok && p.RT == t {
			s.preds = append(s.preds, stagePred{outerPos: pos, innerCol: inner(p.RC)})
		}
	}
	if jr.direct && s.si == len(jr.plan)-1 {
		for _, p := range jr.proj {
			if c := p - off; c >= 0 && c < ncol {
				s.cols = append(s.cols, ^inner(c))
			} else {
				s.cols = append(s.cols, jr.loc[p])
			}
		}
		return
	}
	for i := 0; i < s.base; i++ {
		s.cols = append(s.cols, i)
	}
	for _, c := range jr.keep[t] {
		s.cols = append(s.cols, ^inner(c))
	}
}

// combine makes the stage's output row of a matching pair.
func (s *joinStage) combine(outer, inner expr.Row) expr.Row {
	row := make(expr.Row, len(s.cols))
	for i, c := range s.cols {
		if c >= 0 {
			row[i] = outer[c]
			continue
		}
		v := inner[^c]
		if s.view {
			v.S = strings.Clone(v.S)
		}
		row[i] = v
	}
	return row
}

// open binds the stage's table and prepares its operator.
func (s *joinStage) open() (err error) {
	jr, t := s.jr, s.sg.Table
	tab, detail := jr.jq.Tables[t], "driver scan"
	if s.up != nil {
		detail = fmt.Sprintf("%.0f outer rows", s.upRows)
	}
	jr.trc.emit(TraceEvent{
		Kind: EvJoinStageStarted, Tactic: "join", Scan: s.sg.Operator,
		Indexes: []string{tab.Name, s.sg.Index}, EstimatedIO: s.sg.EstRows, Detail: detail,
	})
	for _, c := range jr.keep[t] { // the table's carried columns join the pipeline row
		jr.loc[jr.offs[t]+c] = jr.rowLn
		jr.rowLn++
	}
	if s.up == nil {
		s.in, err = jr.access(t, s.sg.Index, jr.streams(0), jr.ordered)
		return err
	}
	switch s.sg.Operator {
	case JoinOpNL, JoinOpHJ:
		s.shape(false)
		if s.sg.Operator == JoinOpHJ && len(s.preds) == 0 {
			return fmt.Errorf("core: hj stage on %s without an equi-join predicate", jr.jq.nameOf(t))
		}
		return nil
	case JoinOpINL, JoinOpRIDX:
	default:
		return fmt.Errorf("core: unknown join operator %q", s.sg.Operator)
	}
	s.shape(true)
	if s.ix = tab.IndexByName(s.sg.Index); s.ix == nil {
		return fmt.Errorf("core: join probe index %s.%s not found", tab.Name, s.sg.Index)
	}
	s.probe = slices.IndexFunc(s.preds, func(sp stagePred) bool { return sp.innerCol == s.ix.LeadingCol() })
	if s.probe == -1 {
		return fmt.Errorf("core: no join predicate drives probe index %s.%s", tab.Name, s.sg.Index)
	}
	// The table's row kernel needs its restriction's columns and the carried ones.
	s.k = &rowKernel{filter: expr.NewFilter(jr.jq.Local[t], jr.jq.Binds),
		need: expr.Cols(len(tab.Columns), append(expr.Columns(jr.jq.Local[t]), jr.keep[t]...)...)}
	if s.sg.Operator == JoinOpRIDX {
		err = s.buildBitmap()
	}
	return err
}

// buildBitmap packs the RIDs of the table's restriction-index range
// into an exact compressed bitmap: the RID-intersect half of ridx.
func (s *joinStage) buildBitmap() error {
	info := s.jr.infos[s.sg.Table]
	if info.restrIx == nil {
		return fmt.Errorf("core: ridx stage on %s without a restriction index", s.jr.jq.Tables[s.sg.Table].Name)
	}
	cur, err := info.restrIx.Tree.SeekTracked(info.restrLo, info.restrHi, s.m.tr)
	if err != nil {
		return err
	}
	defer cur.Close()
	var rids []storage.RID
	for {
		_, r, ok, err := cur.Next()
		if err != nil || !ok {
			s.filter = rid.FromRIDs(rids)
			return err
		}
		rids = append(rids, r)
	}
}

// closeIn closes the stage's table access, if one runs, and books its
// attributed I/O to the stage.
func (s *joinStage) closeIn() {
	if s.in != nil {
		s.in.Close()
		s.inIO = s.inIO.Add(s.in.Stats().IO)
		s.in = nil
	}
}

func (s *joinStage) Next() (expr.Row, bool, error) {
	if s.up == nil { // the driver, not pulled again once it has ended
		row, ok, err := s.in.Next()
		if ok {
			s.rows++
		} else if err == nil {
			s.closeIn()
		}
		return row, ok, err
	}
	for s.out.empty() && !s.done {
		if err := s.round(); err != nil {
			return nil, false, err
		}
	}
	return s.out.Next()
}

// round joins the next chunk of upstream rows. A probe stage of a
// dynamic run first passes its mid-stage checkpoint (Section 6's direct
// competition, applied to a join stage): the probe cost charged so far,
// extrapolated over the rows still expected, against scanning the inner
// once. When the scan wins, hj takes the rows not yet probed: what the
// stage has produced stands, the spent I/O stays attributed.
func (s *joinStage) round() error {
	jr := s.jr
	if s.ix != nil && jr.dynamic && s.probed >= joinReoptCheckEvery {
		left := s.upRows - float64(s.probed)
		if s.m.cost()/float64(s.probed)*left > JoinReoptFactor*jr.jts[s.sg.Table].Pages {
			jr.trc.emit(TraceEvent{
				Kind: EvJoinReoptimized, Tactic: "join", Scan: s.sg.Operator,
				Indexes:  []string{jr.jq.Tables[s.sg.Table].Name, s.sg.Index},
				ActualIO: s.m.cost(),
				Detail:   fmt.Sprintf("probe cost projects past %.0fx a one-scan alternative: hj takes the remaining rows", JoinReoptFactor),
			})
			s.sg.Operator, s.sg.Index, s.ix, s.filter = JoinOpHJ, "", nil, nil
			s.reopt, s.upRows = true, left
			s.shape(false)
		}
	}
	if s.ix == nil && s.ht == nil {
		if err := s.build(); err != nil {
			return err
		}
	}
	// A round takes as many rows as the stage has taken so far, from one
	// (the first joined row is one probe away) up to the cadence.
	n := min(max(s.probed, 1), joinReoptCheckEvery)
	if lim := jr.jq.Limit; lim > 0 && jr.streams(s.si) {
		n = min(n, lim-jr.st.RowsDelivered) // a LIMIT asks upstream for no more than is still wanted
	}
	s.chunk = s.chunk[:0]
	for len(s.chunk) < n && !s.done {
		row, ok, err := s.up.Next()
		if err != nil {
			return err
		}
		if s.done = !ok; ok {
			s.chunk = append(s.chunk, row)
		}
	}
	var err error
	for _, row := range s.chunk {
		if s.ix == nil {
			s.hashProbe(row)
		} else if err = s.probeOne(row); err != nil {
			break
		}
	}
	s.probed += len(s.chunk)
	return err
}

// emit hands a joined row to the stage's consumer.
func (s *joinStage) emit(row expr.Row) {
	s.out.push(row)
	s.rows++
}

// probeOne is the inl/ridx probe kernel: one outer row against the
// inner index. A fetched record is decided through the table's kernel
// into the scratch view and materialized, straight into the output row,
// only if it matches. All I/O is charged to the stage's meter.
func (s *joinStage) probeOne(orow expr.Row) error {
	w, tr := &s.w, s.m.tr
	v := orow[s.preds[s.probe].outerPos]
	if v.IsNull() {
		return nil
	}
	// The key and its successor, back to back in the scratch buffer.
	lo := expr.EncodeKey(w.key[:0], v)
	n := len(lo)
	w.key = expr.AppendKeySuccessor(lo, lo)
	cur, err := s.ix.Tree.SeekTracked(w.key[:n:n], w.key[n:], tr)
	if err != nil {
		return err
	}
	defer cur.Close()
	heap := s.jr.jq.Tables[s.sg.Table].Heap
	for {
		_, r, ok, err := cur.Next()
		if err != nil || !ok {
			return err
		}
		if s.filter != nil && !s.filter.MayContain(r) {
			continue
		}
		rec, err := heap.GetTracked(r, tr)
		if err != nil {
			return err
		}
		pass, err := s.k.record(rec, &w.view)
		if err != nil {
			return err
		}
		if pass && predsMatch(s.preds, orow, w.view) {
			s.emit(s.combine(orow, w.view))
		}
	}
}

// build reads one side of an hj (or nl) stage into the hash table and
// leaves the other to stream past it. hj builds on whichever side is
// smaller by known or estimated count: the stage's table, or the outer
// rows with the table's access as the streamed side. An ordered run and
// nl always build on the table, which keeps the outer rows' order.
func (s *joinStage) build() error {
	jr, t := s.jr, s.sg.Table
	hj := s.sg.Operator == JoinOpHJ
	s.onOuter = hj && !jr.ordered && s.upRows < jr.jts[t].Card
	in, err := jr.access(t, s.sg.Index, s.onOuter && jr.streams(s.si), false)
	if err != nil {
		return err
	}
	s.in = in
	var tkeys, okeys []int // nl: no key columns, one chain
	if hj {
		for _, sp := range s.preds {
			tkeys, okeys = append(tkeys, sp.innerCol), append(okeys, sp.outerPos)
		}
	}
	s.keys = okeys
	built, bkeys := rowSource(in), tkeys
	if s.onOuter {
		built, bkeys = s.up, okeys
		s.up, s.keys = in, tkeys
	}
	rows, err := drainRows(built)
	if err != nil {
		return err
	}
	s.ht = newHashTable(rows, bkeys)
	if !s.onOuter {
		s.closeIn()
	}
	return nil
}

// hashProbe is the hj/nl probe kernel: one streamed row against the
// (read-only) table.
func (s *joinStage) hashProbe(row expr.Row) {
	key, ok := hashJoinKey(s.w.key[:0], row, s.keys)
	if s.w.key = key; !ok {
		return
	}
	for i := s.ht.head[string(key)]; i > 0; i = s.ht.next[i-1] {
		outer, inner := row, s.ht.rows[i-1]
		if s.onOuter {
			outer, inner = inner, outer
		}
		if predsMatch(s.preds, outer, inner) {
			s.emit(s.combine(outer, inner))
		}
	}
}
