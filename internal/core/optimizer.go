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

// Optimizer is the dynamic optimizer. Across runs it keeps one learned
// record per (table, index) — the sampled cluster ratio, the winning
// index order that pre-arranges the next initial stage, and under
// Config.Feedback the cardinality correction — each stamped with the
// catalog state it was learned in and re-derived once that has gone
// stale (learned.go).
//
// RunExec may be called from many goroutines at once; mu guards the
// shared cross-run state (rng and learned). Each retrieval's own state
// lives in the returned Rows and is confined to its caller.
type Optimizer struct {
	cfg     Config
	metrics *Metrics
	mu      sync.Mutex
	rng     *rand.Rand
	learned map[learnedKey]*learned
}

// NewOptimizer creates a dynamic optimizer with the given
// configuration. Zero-valued Config fields are merged with the paper's
// defaults field by field (Config.WithDefaults), so a partial Config
// keeps its explicit settings.
func NewOptimizer(cfg Config) *Optimizer {
	return &Optimizer{
		cfg:     cfg.WithDefaults(),
		metrics: &Metrics{},
		rng:     rand.New(rand.NewSource(1)),
		learned: make(map[learnedKey]*learned),
	}
}

// Config returns the optimizer's configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// Metrics returns the optimizer's cumulative telemetry registry.
func (o *Optimizer) Metrics() *Metrics { return o.metrics }

// RunExec plans and starts a retrieval for q, choosing the tactic
// dynamically at start-retrieval time (Sections 4–7). The returned Rows
// is lazy: scans advance as the caller pulls. It runs under the given
// execution context (nil = free): cancellation and deadline stop the
// retrieval within one simulated page I/O, and a budget bounds its
// attributed I/O.
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

// tracer builds the decision recorder of one retrieval's stats; a
// join's table access (ja non-nil) records as the join, through a copy
// of its tracer.
func (o *Optimizer) tracer(ec *ExecCtx, st *RetrievalStats, ja *joinAccess) tracer {
	if ja != nil {
		return *ja.trc
	}
	return tracer{st: st, metrics: o.metrics, sink: o.cfg.Trace, extra: ec.traceSink()}
}

// newRetrieval assembles the retrieval shell a tactic is arranged in.
func (o *Optimizer) newRetrieval(ec *ExecCtx, q *Query, cfg Config, st RetrievalStats) *retrieval {
	r := &retrieval{q: q, k: q.kernel(), cfg: cfg, st: st, ec: ec, out: &rowQueue{}, o: o}
	r.trc = o.tracer(ec, &r.st, q.join)
	return r
}

// emptyRange is the paper's shortcut: a provably empty range cancels
// all retrieval stages and delivers "end of data" at once.
func (o *Optimizer) emptyRange(ec *ExecCtx, q *Query, st RetrievalStats, detail string) Rows {
	st.Tactic = "empty-range"
	e := &emptyRows{stats: st}
	if trc := o.tracer(ec, &e.stats, q.join); trc.decide(EvEmptyRange) {
		trc.emit(TraceEvent{Kind: EvEmptyRange, Detail: detail})
	}
	return e
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
	// ran it. The learned order is replaced wholesale by the observer,
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
		prev := o.recordLocked("", q.Table).order
		o.mu.Unlock()
		opts := estimate.Options{
			ShortRange:    o.cfg.ShortRange,
			PreviousOrder: prev,
			Governor:      ec.Governor(),
			Correction:    o.correctionFor(q.Table),
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
	r.model = model

	switch {
	case len(q.OrderBy) > 0:
		return o.planOrdered(ec, q, cl, res, r)
	case len(cl.SelfSufficient) > 0:
		return r, o.planWithSelfSufficient(ec, q, res, cl.SelfSufficient, r)
	case len(res.Estimates) > 0:
		// Fetch-needed indexes only: Jscan in the background, borrowed
		// from by the foreground under fast-first.
		a, est := arrangement{tactic: tacticBackgroundOnly, ests: res.Estimates}, bgPlanEst(model, res.Estimates[0])
		if goal == GoalFastFirst {
			a.tactic = tacticFastFirst
		}
		return r, o.arrange(r, a, est)
	}
	// No conjunct-level index use. A top-level OR whose disjuncts are all
	// index-coverable can still be resolved by a union scan, under the
	// same background-only / fast-first choreography as Jscan; otherwise
	// the classical sequential retrieval remains.
	ptr := storage.NewTracker(ec.Governor())
	legs := unionLegs(q, ptr)
	r.st.EstimateIO += ptr.IOCost()
	if legs == nil {
		return r, o.arrange(r, arrangement{tactic: tacticTscan}, model.TscanCost())
	}
	var totalEst float64
	for _, l := range legs {
		totalEst += l.Est
	}
	a, est := arrangement{tactic: tacticBackgroundOnly, legs: legs}, model.JscanFinalCost(totalEst)
	if goal == GoalFastFirst {
		a.tactic = tacticFastFirst
	}
	return r, o.arrange(r, a, est)
}

// arrangement is a tactic as the scans that run it — what start-retrieval
// time decides (Section 7, Figure 4) and what a pinned plan freezes: the
// foreground's index and bounds (sscan, fscan, sorted, index-only) and
// the background's input, Jscan estimates or Uscan legs.
type arrangement struct {
	tactic tacticKind
	ix     *catalog.Index
	lo, hi []byte
	desc   bool
	ests   []estimate.IndexEstimate
	legs   []unionLeg
}

// arrange turns a into r's foreground and background under r.cfg and
// records the choice: its facts, and for a sink the tactic-chosen event
// — the one place any arrangement, dynamic or pinned, becomes scans. The
// foreground is built first: its seek may spend I/O, while Jscan and
// Uscan construction spends none.
func (o *Optimizer) arrange(r *retrieval, a arrangement, estIO float64) error {
	ec, q, cfg := r.ec, r.q, r.cfg
	var borrow *ridQueue
	switch a.tactic {
	case tacticTscan:
		r.fg = r.sequentialScan()
	case tacticSscan, tacticIndexOnly:
		fg, err := newSscan(ec, q, a.ix, a.lo, a.hi, r.out, a.desc)
		if err != nil {
			return err
		}
		if a.tactic == tacticIndexOnly {
			fg.track = func() bool { return !r.bgDone }
		}
		r.fg = fg
	case tacticFscan, tacticSorted:
		fg, err := newFscan(ec, q, r.k, a.ix, a.lo, a.hi, r.out, a.desc)
		if err != nil {
			return err
		}
		r.fg = fg
		// The filter is the sorted tactic's only useful Jscan outcome: no
		// temp-table spill, the bitmap absorbs overflow (Section 7).
		cfg.RID.FilterOnly = true
	case tacticFastFirst:
		// Racing is off so the borrow stream comes from a single stable
		// first scan.
		borrow, cfg.RaceFactor = &ridQueue{}, -1
		r.fg = newBorrowFetcher(ec, q, r.k, borrow, r.out, cfg.FgBufferCap)
	}
	r.tactic = a.tactic
	switch {
	case a.legs != nil:
		r.bg = newUscan(ec, q, cfg, r.model, a.legs, borrow, &r.trc)
	case len(a.ests) > 0:
		j := newJscan(ec, q, cfg, r.model, a.ests, borrow, &r.trc)
		j.onDone = o.observer(q)
		r.bg = j
	}
	r.trc.st.planEstIO = estIO
	if a.ix != nil {
		r.trc.st.planIndex = a.ix.Name
	}
	if r.trc.decide(EvTacticChosen) {
		r.trc.emit(r.chosenEvent(a, estIO))
	}
	return nil
}

// chosenEvent is the tactic-chosen event of a as arranged in r. Its Scan
// is the scan that answers for the tactic: the foreground's own index
// scan, else the background the foreground borrows from or waits on.
func (r *retrieval) chosenEvent(a arrangement, estIO float64) TraceEvent {
	ev := TraceEvent{Kind: EvTacticChosen, Tactic: a.tactic.String(), Scan: "Tscan", EstimatedIO: estIO, Detail: a.detail(r.q, r.pinned)}
	if a.ix != nil {
		ev.Scan = r.fg.name()
		ev.Indexes = append(ev.Indexes, a.ix.Name)
	} else if r.bg != nil {
		ev.Scan = r.bg.name()
	}
	for _, l := range a.legs {
		ev.Indexes = append(ev.Indexes, l.Index.Name)
	}
	for _, e := range a.ests {
		ev.Indexes = append(ev.Indexes, e.Index.Name)
	}
	return ev
}

// detail says why a was chosen, for its tactic-chosen event. A pinned
// replay says only that; a dynamic sscan came from an order-needed index
// when q requests an order (planOrdered), else it is the lone
// self-sufficient one.
func (a arrangement) detail(q *Query, pinned bool) string {
	if pinned {
		if a.tactic == tacticFastFirst {
			return "pinned plan replay, foreground borrows from " + a.ests[0].Index.Name
		}
		return "pinned plan replay"
	}
	switch a.tactic {
	case tacticTscan:
		return "no useful index"
	case tacticSscan:
		if len(q.OrderBy) > 0 {
			return "self-sufficient order-needed index"
		}
		return "lone self-sufficient index"
	case tacticFscan:
		return "ordered plain Fscan"
	case tacticSorted:
		return fmt.Sprintf("Fscan(%s) + filter Jscan(%d indexes)", a.ix.Name, len(a.ests))
	case tacticIndexOnly:
		return fmt.Sprintf("Sscan(%s) races Jscan over %d indexes", a.ix.Name, len(a.ests))
	case tacticFastFirst:
		if a.legs != nil {
			return fmt.Sprintf("fast-first over a %d-leg union", len(a.legs))
		}
		return "fast-first, foreground borrows from " + a.ests[0].Index.Name
	}
	if a.legs != nil {
		return fmt.Sprintf("background-only union over %d disjunct legs", len(a.legs))
	}
	return fmt.Sprintf("background-only over %d indexes", len(a.ests))
}

// runSorted wraps a total-time dynamic retrieval in a SORT (the paper's
// goal inference treats SORT as a total-time controller).
func (o *Optimizer) runSorted(ec *ExecCtx, q *Query) (Rows, error) {
	return sortNode(q, func(inner *Query) (Rows, error) { return o.run(ec, inner) })
}

// sortNode is the SORT node over a single-table retrieval: q, stripped
// of its order and limit and delivering its projection plus the ORDER BY
// columns that projection lacks, starts through run — the row kernel
// materializes nothing else. The first Next drains it; the result is
// sorted, cut back to q's projection, and delivered under q's limit.
func sortNode(q *Query, run func(inner *Query) (Rows, error)) (Rows, error) {
	inner, by, width := *q, q.OrderBy, 0
	if q.Projection != nil {
		by = make([]int, len(q.OrderBy))
		for i, c := range q.OrderBy {
			if by[i] = slices.Index(inner.Projection, c); by[i] < 0 {
				by[i], width = len(inner.Projection), len(q.Projection)
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
	return &sortedRows{src: src, by: by, desc: q.OrderDesc, width: width, limit: q.Limit}, nil
}

// sortedRows is a SORT node's result. Its first Next drains and closes
// the inner retrieval and sorts what it delivered; a Close before that
// closes the inner retrieval unread, so a plain EXPLAIN runs nothing.
// RowsDelivered counts what the caller was handed, whatever the stats
// of the retrieval that produced the rows said.
type sortedRows struct {
	src    Rows // the inner retrieval
	closed bool // src is closed: drained, or abandoned unread
	by     []int
	desc   bool
	width  int // q's projection width when sort columns were carried, else 0
	rows   []expr.Row
	limit  int // 0 = all rows
	i      int // rows handed out
	err    error
}

func (s *sortedRows) Next() (expr.Row, bool, error) {
	if !s.closed {
		s.err = s.sort()
	}
	if s.err != nil || s.i >= len(s.rows) || (s.limit > 0 && s.i >= s.limit) {
		return nil, false, s.err
	}
	s.i++
	return s.rows[s.i-1], true, nil
}

// sort drains and closes the inner retrieval and sorts its rows.
func (s *sortedRows) sort() error {
	all, err := drainRows(s.src)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sortRows(all, s.by, s.desc)
	if s.width > 0 {
		for i, row := range all {
			all[i] = row[:s.width:s.width] // drop the carried sort columns
		}
	}
	s.rows = all
	return nil
}

func (s *sortedRows) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.src.Close()
}

func (s *sortedRows) Stats() RetrievalStats {
	st := s.src.Stats()
	st.Tactic = "sort(" + st.Tactic + ")"
	st.RowsDelivered = s.i
	return st
}

// tableCostModel is the cost model's table-size half — all a plain
// sequential or single-index scan needs, and free to build.
func tableCostModel(q *Query) estimate.CostModel {
	return estimate.CostModel{TablePages: q.Table.Pages(), TableRows: q.Table.Cardinality()}
}

// costModel builds the I/O cost model for q, with the cluster ratio of
// its first fetch-needed index as learned: sampled once per fresh
// record.
func (o *Optimizer) costModel(q *Query, cl Classification) estimate.CostModel {
	m := tableCostModel(q)
	// Cluster ratio of the first fetch-needed index dominates fetch
	// costs; sample it lazily. Sampling is cheap (a few ranked
	// descents) but not free, which mirrors the paper's point that
	// clustering "may be hard to detect".
	if len(cl.FetchNeeded) > 0 {
		ix := cl.FetchNeeded[0]
		o.mu.Lock()
		rec := o.recordLocked(ix.Name, q.Table)
		if !rec.sampled {
			r, err := ix.EstimateClusterRatio(o.rng, 16)
			if err != nil {
				r = 0
			}
			rec.cluster, rec.sampled = r, true
		}
		m.ClusterRatio = rec.cluster
		o.mu.Unlock()
	}
	return m
}

// observer returns the jscan completion hook that records the winning
// index order for the next run's pre-arrangement.
func (o *Optimizer) observer(q *Query) func([]string) {
	return func(names []string) {
		if len(names) > 0 {
			o.mu.Lock()
			o.recordLocked("", q.Table).order = names
			o.mu.Unlock()
		}
	}
}

// planWithSelfSufficient: a self-sufficient index is available. With no
// fetch-needed competition it is the statically clear Sscan; otherwise
// the index-only tactic races the best Sscan against Jscan.
func (o *Optimizer) planWithSelfSufficient(ec *ExecCtx, q *Query, res estimate.Result, cands []*catalog.Index, r *retrieval) error {
	a, cost, err := bestSscan(ec, q, cands)
	if err != nil {
		return err
	}
	r.fgEstTotal = cost
	if len(res.Estimates) == 0 {
		a.tactic = tacticSscan
		return o.arrange(r, a, cost)
	}
	a.tactic, a.ests = tacticIndexOnly, res.Estimates
	return o.arrange(r, a, cost)
}

// bgPlanEst is the optimistic projected I/O of a background plan: scan
// the most selective index, then fetch its RID list in the final stage.
// Pure arithmetic over already-computed estimates — no I/O.
func bgPlanEst(model estimate.CostModel, e estimate.IndexEstimate) float64 {
	return model.LeafPages(e.RIDs, e.Index.Tree.AvgLeafEntries()) +
		float64(e.Index.Tree.Height()) + model.JscanFinalCost(e.RIDs)
}

// bestSscan picks the cheapest self-sufficient index by estimated scan
// cost over its restriction bounds: the Sscan half of an arrangement.
func bestSscan(ec *ExecCtx, q *Query, cands []*catalog.Index) (best arrangement, bestCost float64, err error) {
	bestCost = math.Inf(1)
	tr := storage.NewTracker(ec.Governor())
	for _, ix := range cands {
		lo, hi, _, _ := ix.RestrictionBounds(q.Restriction, q.Binds)
		rids, _, err := ix.Tree.EstimateRangeRefinedTracked(lo, hi, tr)
		if err != nil {
			return best, 0, err
		}
		if cost := tableCostModel(q).SscanCost(rids, ix.Tree.AvgLeafEntries(), ix.Tree.Height()); cost < bestCost {
			best, bestCost = arrangement{ix: ix, lo: lo, hi: hi}, cost
		}
	}
	return best, bestCost, nil
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
//
// Run has already answered a contradictory range (Classify checks every
// index), so the bounds here are never empty.
func (o *Optimizer) planOrdered(ec *ExecCtx, q *Query, cl Classification, res estimate.Result, r *retrieval) (Rows, error) {
	// Prefer an order-needed index that is also self-sufficient.
	for _, ix := range cl.OrderNeeded {
		if ix.Covers(q.neededColumns()) {
			a := arrangement{tactic: tacticSscan, ix: ix, desc: q.OrderDesc}
			a.lo, a.hi, _, _ = ix.RestrictionBounds(q.Restriction, q.Binds)
			return r, o.arrange(r, a, 0)
		}
	}
	ordIx := cl.OrderNeeded[0]
	a := arrangement{tactic: tacticFscan, ix: ordIx, desc: q.OrderDesc}
	a.lo, a.hi, _, _ = ordIx.RestrictionBounds(q.Restriction, q.Binds)
	var fscanEst float64
	if q.EffectiveGoal() != GoalFastFirst {
		rids, _, err := ordIx.Tree.EstimateRangeRefinedTracked(a.lo, a.hi, storage.NewTracker(ec.Governor()))
		if err != nil {
			return nil, err
		}
		fscanEst = r.model.FscanCost(rids, ordIx.Tree.AvgLeafEntries(), ordIx.Tree.Height())
		if fscanEst > r.model.TscanCost() {
			// Ordered Fscan loses to materialize-and-sort: delegate.
			return o.runSorted(ec, q)
		}
	}
	// Jscan over the other fetch-needed indexes produces the pre-fetch
	// filter.
	for _, e := range res.Estimates {
		if e.Index != ordIx {
			a.ests = append(a.ests, e)
		}
	}
	if len(a.ests) > 0 {
		a.tactic = tacticSorted
	}
	return r, o.arrange(r, a, fscanEst)
}
