package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// Optimizer is the dynamic optimizer. It keeps cross-run state: the
// winning index order of previous retrievals on each table (used to
// pre-arrange the next initial stage) and cached cluster-ratio samples
// per index.
//
// Run may be called from many goroutines at once; mu guards the shared
// cross-run state (rng, prevOrder, cluster). Each retrieval's own state
// lives in the returned Rows and is confined to its caller.
type Optimizer struct {
	cfg       Config
	metrics   *Metrics
	mu        sync.Mutex
	rng       *rand.Rand
	prevOrder map[string][]string
	cluster   map[*catalog.Index]float64
}

// NewOptimizer creates a dynamic optimizer with the given
// configuration. Zero-valued Config fields are merged with the paper's
// defaults field by field (Config.WithDefaults), so a partial Config
// keeps its explicit settings.
func NewOptimizer(cfg Config) *Optimizer {
	return &Optimizer{
		cfg:       cfg.WithDefaults(),
		metrics:   &Metrics{},
		rng:       rand.New(rand.NewSource(1)),
		prevOrder: make(map[string][]string),
		cluster:   make(map[*catalog.Index]float64),
	}
}

// Config returns the optimizer's configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// Metrics returns the optimizer's cumulative telemetry registry.
func (o *Optimizer) Metrics() *Metrics { return o.metrics }

// Run plans and starts a retrieval for q, choosing the tactic
// dynamically at start-retrieval time (Sections 4–7). The returned Rows
// is lazy: scans advance as the caller pulls. Run is the free-context
// convenience (no cancellation, no deadline, no budget) over RunExec.
func (o *Optimizer) Run(q *Query) Rows { return o.RunExec(nil, q) }

// RunExec runs q under the given execution context (nil = free):
// cancellation and deadline stop the retrieval within one simulated
// page I/O, and a budget bounds its attributed I/O.
func (o *Optimizer) RunExec(ec *ExecCtx, q *Query) Rows {
	rows, err := o.run(ec, q)
	return o.deliver(ec, rows, err)
}

// deliver is the tail of every entry point (dynamic, pinned, join): it
// counts the query, and a setup error — counted as a cancellation when
// it is one, once per ExecCtx — surfaces through the iterator contract.
func (o *Optimizer) deliver(ec *ExecCtx, rows Rows, err error) Rows {
	o.metrics.recordQuery()
	if err != nil {
		if IsCancellation(err) && ec.markCancelRecorded() {
			o.metrics.recordCancellation(err)
		}
		return errRows{err: err}
	}
	return rows
}

// Validate checks q's structure before any I/O is spent.
func (q *Query) Validate() error {
	if q.Table == nil {
		return fmt.Errorf("core: query without table")
	}
	if err := expr.Validate(q.Restriction); err != nil {
		return err
	}
	for _, cols := range [2][]int{q.Projection, q.OrderBy} {
		for _, c := range cols {
			if c < 0 || c >= len(q.Table.Columns) {
				return fmt.Errorf("core: column position %d out of range", c)
			}
		}
	}
	return nil
}

// tracer builds the event fan-out for one retrieval's stats; a join's
// table access (ja non-nil) emits as the join, through its tracer.
func (o *Optimizer) tracer(ec *ExecCtx, st *RetrievalStats, ja *joinAccess) *tracer {
	if ja != nil {
		return ja.trc
	}
	return &tracer{st: st, sink: o.cfg.Trace, extra: ec.traceSink(), metrics: o.metrics}
}

// newRetrieval assembles the retrieval shell a tactic is arranged in.
func (o *Optimizer) newRetrieval(ec *ExecCtx, q *Query, cfg Config, st RetrievalStats) *retrieval {
	r := &retrieval{q: q, k: q.kernel(), cfg: cfg, st: st, ec: ec, out: &rowQueue{}, metrics: o.metrics}
	r.trc = o.tracer(ec, &r.st, q.join)
	return r
}

// emptyRange is the paper's shortcut: a provably empty range cancels
// all retrieval stages and delivers "end of data" at once.
func (o *Optimizer) emptyRange(ec *ExecCtx, q *Query, st RetrievalStats, detail string) Rows {
	st.Tactic = "empty-range"
	o.tracer(ec, &st, q.join).emit(TraceEvent{Kind: EvEmptyRange, Detail: detail})
	return &emptyRows{stats: st}
}

func (o *Optimizer) run(ec *ExecCtx, q *Query) (Rows, error) {
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	goal := q.EffectiveGoal()
	cl := Classify(q)

	// A contradictory sargable range makes the whole conjunction
	// unsatisfiable: cancel all retrieval stages and deliver the "end
	// of data" condition at once, before any estimation I/O is spent.
	if cl.EmptyRange {
		st := RetrievalStats{FinalListLen: -1, QueryID: nextQueryID()}
		return o.emptyRange(ec, q, st, "contradictory sargable range, end of data at once"), nil
	}

	// Order requested but no index delivers it: classic SORT node over
	// a total-time retrieval.
	if len(q.OrderBy) > 0 && len(cl.OrderNeeded) == 0 {
		return o.runSorted(ec, q)
	}

	// Initial stage over the fetch-needed indexes, unless a join already
	// ran it. The prevOrder slice is replaced wholesale by the observer,
	// never mutated, so reading its elements outside the lock is safe.
	var res estimate.Result
	if q.join != nil {
		res = *q.join.res // of every restricted index: keep the fetch-needed ones
		res.Estimates = nil
		for _, e := range q.join.res.Estimates {
			if slices.Contains(cl.FetchNeeded, e.Index) {
				res.Estimates = append(res.Estimates, e)
			}
		}
	} else {
		o.mu.Lock()
		prev := o.prevOrder[q.Table.Name]
		o.mu.Unlock()
		opts := estimate.Options{
			ShortRange:    o.cfg.ShortRange,
			PreviousOrder: prev,
			Governor:      ec.Governor(),
			Correction:    o.cfg.Feedback.CorrectionFor(q.Table.Name),
		}
		var err error
		if res, err = estimate.Appraise(cl.FetchNeeded, q.Restriction, q.Binds, opts); err != nil {
			return nil, err
		}
	}
	st := RetrievalStats{EstimateIO: res.TotalCost, FinalListLen: -1, QueryID: nextQueryID()}
	for _, e := range res.Estimates {
		st.Estimates = append(st.Estimates, EstimateSummary{Index: e.Index.Name, RIDs: e.RIDs, Exact: e.Exact})
	}
	if res.EmptyRange {
		return o.emptyRange(ec, q, st, "initial stage: empty range, end of data at once"), nil
	}

	model := o.costModel(q, cl)
	r := o.newRetrieval(ec, q, o.cfg, st)
	r.model, r.fb = model, o.cfg.Feedback

	switch {
	case len(q.OrderBy) > 0:
		alt, err := o.planOrdered(ec, q, cl, res, r)
		if err != nil {
			return nil, err
		}
		if alt != nil {
			return alt, nil
		}
	case len(cl.SelfSufficient) > 0:
		if err := o.planWithSelfSufficient(ec, q, cl, res, r); err != nil {
			return nil, err
		}
	case len(res.Estimates) > 0:
		if goal == GoalFastFirst {
			o.planFastFirst(ec, q, res, r, model)
		} else {
			o.planBackgroundOnly(ec, q, res, r, model)
		}
	default:
		// No conjunct-level index use. A top-level OR whose disjuncts
		// are all index-coverable can still be resolved by a union
		// scan; otherwise the classical sequential retrieval remains.
		ptr := storage.NewTracker(ec.Governor())
		legs := unionLegs(q, ptr)
		r.st.EstimateIO += ptr.IOCost()
		if legs != nil {
			o.planUnion(ec, q, legs, r, model, goal)
		} else {
			r.tactic = tacticTscan
			r.fg = newTscan(ec, q, r.k, r.out, tscanWidth(o.cfg, ec, r.trc, q, model.TscanCost()))
			r.trc.emit(TraceEvent{
				Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: "Tscan",
				EstimatedIO: model.TscanCost(), Detail: "no useful index",
			})
		}
	}
	return r, nil
}

// planUnion arranges a union scan as the background process, under the
// same background-only / fast-first choreography as Jscan.
func (o *Optimizer) planUnion(ec *ExecCtx, q *Query, legs []unionLeg, r *retrieval, model estimate.CostModel, goal Goal) {
	var (
		names    []string
		totalEst float64
	)
	for _, l := range legs {
		names = append(names, l.Index.Name)
		totalEst += l.Est
	}
	unionEst := model.JscanFinalCost(totalEst)
	if goal == GoalFastFirst {
		r.tactic = tacticFastFirst
		borrow := &ridQueue{}
		r.bg = newUscan(ec, q, o.cfg, model, legs, borrow, r.trc)
		r.fg = newBorrowFetcher(ec, q, r.k, borrow, r.out, o.cfg.FgBufferCap)
		r.trc.emit(TraceEvent{
			Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: "Uscan", Indexes: names,
			EstimatedIO: unionEst, Detail: fmt.Sprintf("fast-first over a %d-leg union", len(legs)),
		})
		return
	}
	r.tactic = tacticBackgroundOnly
	r.bg = newUscan(ec, q, o.cfg, model, legs, nil, r.trc)
	r.trc.emit(TraceEvent{
		Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: "Uscan", Indexes: names,
		EstimatedIO: unionEst, Detail: fmt.Sprintf("background-only union over %d disjunct legs", len(legs)),
	})
}

// runSorted wraps a total-time dynamic retrieval in a SORT (the paper's
// goal inference treats SORT as a total-time controller).
func (o *Optimizer) runSorted(ec *ExecCtx, q *Query) (Rows, error) {
	return sortNode(q, func(inner *Query) (Rows, error) { return o.run(ec, inner) })
}

// sortNode is the SORT node over a single-table retrieval: q, stripped
// of its order and limit and delivering its projection plus the ORDER BY
// columns that projection lacks, runs through run — the row kernel
// materializes nothing else; the result is sorted, cut back to q's
// projection, and delivered under q's limit.
func sortNode(q *Query, run func(inner *Query) (Rows, error)) (Rows, error) {
	inner, by := *q, q.OrderBy
	if q.Projection != nil {
		by = make([]int, len(q.OrderBy))
		for i, c := range q.OrderBy {
			if by[i] = slices.Index(inner.Projection, c); by[i] < 0 {
				by[i] = len(inner.Projection)
				inner.Projection = append(slices.Clip(inner.Projection), c)
			}
		}
	}
	inner.OrderBy = nil
	inner.Limit = 0
	inner.Control = ControlSort
	src, err := run(&inner)
	if err != nil {
		return nil, err
	}
	all, err := drainRows(src)
	if err != nil {
		src.Close()
		return nil, err
	}
	if err := src.Close(); err != nil {
		return nil, err
	}
	sortRows(all, by, q.OrderDesc)
	if w := len(q.Projection); w < len(inner.Projection) {
		for i, row := range all {
			all[i] = row[:w:w] // drop the carried sort columns
		}
	}
	st := src.Stats()
	st.Tactic = "sort(" + st.Tactic + ")"
	return &materializedRows{rows: all, limit: q.Limit, st: st}, nil
}

// materializedRows delivers pre-materialized rows — a sorted
// single-table result — under a limit. RowsDelivered counts what the
// caller was handed, whatever the stats of the retrieval that produced
// the rows said.
type materializedRows struct {
	rows  []expr.Row
	limit int // 0 = all rows
	i     int // rows handed out
	st    RetrievalStats
}

func (s *materializedRows) Next() (expr.Row, bool, error) {
	if s.i >= len(s.rows) || (s.limit > 0 && s.i >= s.limit) {
		return nil, false, nil
	}
	s.i++
	return s.rows[s.i-1], true, nil
}

func (s *materializedRows) Close() error { return nil }

func (s *materializedRows) Stats() RetrievalStats {
	st := s.st
	st.RowsDelivered = s.i
	return st
}

// tableCostModel is the cost model's table-size half — all a plain
// sequential or single-index scan needs, and free to build.
func tableCostModel(q *Query) estimate.CostModel {
	return estimate.CostModel{TablePages: q.Table.Pages(), TableRows: q.Table.Cardinality()}
}

// costModel builds the I/O cost model for q, sampling the cluster ratio
// of the most relevant index once and caching it.
func (o *Optimizer) costModel(q *Query, cl Classification) estimate.CostModel {
	m := tableCostModel(q)
	// Cluster ratio of the first fetch-needed index dominates fetch
	// costs; sample it lazily. Sampling is cheap (a few ranked
	// descents) but not free, which mirrors the paper's point that
	// clustering "may be hard to detect".
	if len(cl.FetchNeeded) > 0 {
		ix := cl.FetchNeeded[0]
		o.mu.Lock()
		r, ok := o.cluster[ix]
		if !ok {
			var err error
			r, err = ix.EstimateClusterRatio(o.rng, 16)
			if err != nil {
				r = 0
			}
			o.cluster[ix] = r
		}
		o.mu.Unlock()
		m.ClusterRatio = r
	}
	return m
}

// observer returns the jscan completion hook that records the winning
// index order for the next run's pre-arrangement.
func (o *Optimizer) observer(q *Query) func([]string) {
	return func(names []string) {
		if len(names) > 0 {
			o.mu.Lock()
			o.prevOrder[q.Table.Name] = names
			o.mu.Unlock()
		}
	}
}

// planBackgroundOnly: total-time, fetch-needed indexes only.
func (o *Optimizer) planBackgroundOnly(ec *ExecCtx, q *Query, res estimate.Result, r *retrieval, model estimate.CostModel) {
	r.tactic = tacticBackgroundOnly
	j := newJscan(ec, q, o.cfg, model, res.Estimates, nil, r.trc)
	j.onDone = o.observer(q)
	r.bg = j
	r.trc.emit(TraceEvent{
		Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: "Jscan", Indexes: estNames(res.Estimates),
		EstimatedIO: bgPlanEst(model, res.Estimates[0]),
		Detail:      fmt.Sprintf("background-only over %d indexes", len(res.Estimates)),
	})
}

// planFastFirst: fast-first, fetch-needed indexes only. The background
// Jscan feeds the foreground borrow fetcher; racing is disabled so the
// borrow stream comes from a single stable first scan.
func (o *Optimizer) planFastFirst(ec *ExecCtx, q *Query, res estimate.Result, r *retrieval, model estimate.CostModel) {
	r.tactic = tacticFastFirst
	cfg := o.cfg
	cfg.RaceFactor = -1
	borrow := &ridQueue{}
	j := newJscan(ec, q, cfg, model, res.Estimates, borrow, r.trc)
	j.onDone = o.observer(q)
	r.bg = j
	r.fg = newBorrowFetcher(ec, q, r.k, borrow, r.out, cfg.FgBufferCap)
	r.trc.emit(TraceEvent{
		Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: "Jscan", Indexes: estNames(res.Estimates),
		EstimatedIO: bgPlanEst(model, res.Estimates[0]),
		Detail:      "fast-first, foreground borrows from " + res.Estimates[0].Index.Name,
	})
}

// planWithSelfSufficient: a self-sufficient index is available. With no
// fetch-needed competition it is the statically clear Sscan; otherwise
// the index-only tactic races the best Sscan against Jscan.
func (o *Optimizer) planWithSelfSufficient(ec *ExecCtx, q *Query, cl Classification, res estimate.Result, r *retrieval) error {
	best, bestCost, bestLo, bestHi, bestEmpty, err := o.bestSscan(ec, q, cl.SelfSufficient)
	if err != nil {
		return err
	}
	if bestEmpty {
		r.tactic = tacticSscan
		r.trc.emit(TraceEvent{Kind: EvEmptyRange, Scan: "Sscan", Indexes: []string{best.Name}, Detail: "sscan range empty, end of data at once"})
		r.closed = true
		return nil
	}
	fg, err := newSscan(ec, q, best, bestLo, bestHi, r.out, false)
	if err != nil {
		return err
	}
	r.fg = fg
	r.fgEstTotal = bestCost
	if len(res.Estimates) == 0 {
		r.tactic = tacticSscan
		r.trc.emit(TraceEvent{
			Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: fg.name(), Indexes: []string{best.Name},
			EstimatedIO: bestCost, Detail: "lone self-sufficient index",
		})
		return nil
	}
	r.tactic = tacticIndexOnly
	fg.track = func() bool { return !r.bgDone }
	j := newJscan(ec, q, o.cfg, r.model, res.Estimates, nil, r.trc)
	j.onDone = o.observer(q)
	r.bg = j
	r.trc.emit(TraceEvent{
		Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: fg.name(),
		Indexes:     append([]string{best.Name}, estNames(res.Estimates)...),
		EstimatedIO: bestCost,
		Detail:      fmt.Sprintf("Sscan(%s) races Jscan over %d indexes", best.Name, len(res.Estimates)),
	})
	return nil
}

// estNames lists the index names of an estimate slice.
func estNames(ests []estimate.IndexEstimate) []string {
	out := make([]string, len(ests))
	for i, e := range ests {
		out[i] = e.Index.Name
	}
	return out
}

// bgPlanEst is the optimistic projected I/O of a background plan: scan
// the most selective index, then fetch its RID list in the final stage.
// Pure arithmetic over already-computed estimates — no I/O.
func bgPlanEst(model estimate.CostModel, e estimate.IndexEstimate) float64 {
	return model.LeafPages(e.RIDs, e.Index.Tree.AvgLeafEntries()) +
		float64(e.Index.Tree.Height()) + model.JscanFinalCost(e.RIDs)
}

// bestSscan picks the cheapest self-sufficient index by estimated scan
// cost over its restriction bounds.
func (o *Optimizer) bestSscan(ec *ExecCtx, q *Query, cands []*catalog.Index) (best *catalog.Index, bestCost float64, bestLo, bestHi []byte, empty bool, err error) {
	bestCost = math.Inf(1)
	tr := storage.NewTracker(ec.Governor())
	for _, ix := range cands {
		lo, hi, _, emptyRg := ix.RestrictionBounds(q.Restriction, q.Binds)
		if emptyRg {
			return ix, 0, nil, nil, true, nil
		}
		rids, _, err := ix.Tree.EstimateRangeRefinedTracked(lo, hi, tr)
		if err != nil {
			return nil, 0, nil, nil, false, err
		}
		cost := tableCostModel(q).SscanCost(rids, ix.Tree.AvgLeafEntries(), ix.Tree.Height())
		if cost < bestCost {
			best, bestCost, bestLo, bestHi = ix, cost, lo, hi
		}
	}
	return best, bestCost, bestLo, bestHi, false, nil
}

// planOrdered: an order-needed index exists. If one is also
// self-sufficient, an ordered Sscan answers everything; otherwise the
// sorted tactic runs an order-delivering Fscan cooperating with a
// filter-producing Jscan over the remaining fetch-needed indexes.
//
// The sorted tactic is a fast-first arrangement (the paper presents it
// for "fast-first optimization [where] at least one [index] delivers
// the requested order"). Under a total-time goal the optimizer first
// compares the order-index Fscan against materialize-and-sort over a
// sequential scan and takes the cheaper estimate — an ordered Fscan
// over a wide range costs one random fetch per row, which loses badly
// to sort(Tscan).
func (o *Optimizer) planOrdered(ec *ExecCtx, q *Query, cl Classification, res estimate.Result, r *retrieval) (Rows, error) {
	// Prefer an order-needed index that is also self-sufficient.
	for _, ix := range cl.OrderNeeded {
		if ix.Covers(q.neededColumns()) {
			lo, hi, _, empty := ix.RestrictionBounds(q.Restriction, q.Binds)
			if empty {
				// Contradictory range: cancel all stages, end of data
				// at once, zero scan I/O.
				r.tactic = tacticSscan
				r.trc.emit(TraceEvent{Kind: EvEmptyRange, Scan: "Sscan", Indexes: []string{ix.Name}, Detail: "ordered range empty, end of data at once"})
				r.closed = true
				return nil, nil
			}
			fg, err := newSscan(ec, q, ix, lo, hi, r.out, q.OrderDesc)
			if err != nil {
				return nil, err
			}
			r.tactic = tacticSscan
			r.fg = fg
			r.trc.emit(TraceEvent{
				Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: fg.name(), Indexes: []string{ix.Name},
				Detail: "self-sufficient order-needed index",
			})
			return nil, nil
		}
	}
	ordIx := cl.OrderNeeded[0]
	ordLo, ordHi, _, ordEmpty := ordIx.RestrictionBounds(q.Restriction, q.Binds)
	if ordEmpty {
		r.tactic = tacticFscan
		r.trc.emit(TraceEvent{Kind: EvEmptyRange, Scan: "Fscan", Indexes: []string{ordIx.Name}, Detail: "ordered range empty, end of data at once"})
		r.closed = true
		return nil, nil
	}
	var fscanEst float64
	if q.EffectiveGoal() != GoalFastFirst {
		rids, _, err := ordIx.Tree.EstimateRangeRefinedTracked(ordLo, ordHi, storage.NewTracker(ec.Governor()))
		if err != nil {
			return nil, err
		}
		fscanEst = r.model.FscanCost(rids, ordIx.Tree.AvgLeafEntries(), ordIx.Tree.Height())
		if fscanEst > r.model.TscanCost() {
			// Ordered Fscan loses to materialize-and-sort: delegate.
			return o.runSorted(ec, q)
		}
	}
	fg, err := newFscan(ec, q, r.k, ordIx, ordLo, ordHi, r.out, q.OrderDesc)
	if err != nil {
		return nil, err
	}
	r.fg = fg
	// Jscan over the other fetch-needed indexes produces the pre-fetch
	// filter.
	var others []estimate.IndexEstimate
	for _, e := range res.Estimates {
		if e.Index != ordIx {
			others = append(others, e)
		}
	}
	if len(others) == 0 {
		r.tactic = tacticFscan
		r.trc.emit(TraceEvent{
			Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: fg.name(), Indexes: []string{ordIx.Name},
			EstimatedIO: fscanEst, Detail: "ordered plain Fscan",
		})
		return nil, nil
	}
	r.tactic = tacticSorted
	// The filter is the only useful Jscan outcome here: no temp-table
	// spill, the bitmap absorbs overflow (Section 7, sorted tactic).
	cfg := o.cfg
	cfg.RID.FilterOnly = true
	j := newJscan(ec, q, cfg, r.model, others, nil, r.trc)
	j.onDone = o.observer(q)
	r.bg = j
	r.trc.emit(TraceEvent{
		Kind: EvTacticChosen, Tactic: r.tactic.String(), Scan: fg.name(),
		Indexes:     append([]string{ordIx.Name}, estNames(others)...),
		EstimatedIO: fscanEst,
		Detail:      fmt.Sprintf("Fscan(%s) + filter Jscan(%d indexes)", ordIx.Name, len(others)),
	})
	return nil, nil
}
