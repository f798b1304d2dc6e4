package core

import (
	"fmt"

	"rdbdyn/internal/btree"
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// jscan is the joint scan of fetch-needed indexes (Section 6).
//
// Indexes are scanned in the pre-arranged ascending-selectivity order.
// Each scan produces a RID list (a hybrid container) intersected against
// the filter of the previously completed list. Scans run under a
// two-stage competition: at every step the final-stage retrieval cost is
// projected from the current list and the scan is abandoned when the
// projection approaches the guaranteed best retrieval cost (initially
// Tscan, then retrieval by the best complete RID list so far). A direct
// competition leg also abandons a scan whose own cost starts to
// dominate the guaranteed best.
//
// When the estimates of two adjacent indexes are too close to trust,
// they are scanned simultaneously within the memory buffer; the first
// to complete becomes the new list and the loser's partial list is
// refiltered and continued (Section 6's limited dynamic reordering).
type jscan struct {
	meter
	q     *Query
	cfg   Config
	model estimate.CostModel
	ests  []estimate.IndexEstimate
	trc   *tracer
	ec    *ExecCtx

	idx int // next index position to scan

	// Current sequential scan (scan.cur == nil: none open): a leg like
	// a racing one, freshly opened or a continued race loser, except
	// that its RIDs go to list, not to the leg's in-memory slice.
	scan raceLeg
	list *rid.Container

	// Racing pair, when active.
	race *raceState

	// Filter and best-so-far state. filter is nil from the moment a new
	// list completes until a scan that will consume it opens
	// (refreshFilter): the list that completes last never pays for one.
	filter         rid.Filter
	complete       *rid.Container
	completeNames  []string
	guaranteedBest float64
	tscanCost      float64

	// Borrowing (fast-first foreground).
	borrow       *ridQueue
	borrowActive bool
	// borrowComplete is true when the scan feeding the borrow queue ran
	// to completion, so the queue carries every candidate RID.
	borrowComplete bool

	done           bool
	recommendTscan bool

	// onDone, when set, receives the winning index-order names at
	// completion (the optimizer reuses them to pre-arrange the next
	// run's initial stage).
	onDone func(names []string)

	// Batch scratch, shared by the current scan and both race legs
	// (steps are strictly sequential within one jscan). Allocated on
	// first use.
	sc *acceptScratch
}

type raceState struct {
	a, b raceLeg
}

// raceLeg is one index scan in flight: a racing leg, the current
// sequential scan, or (ix, local, out) an Sscan.
type raceLeg struct {
	ix       *catalog.Index
	cur      *btree.Cursor
	local    *rowKernel
	out      *rowQueue // where local delivers its survivors: an Sscan's; else nil
	rids     []storage.RID
	seen     int
	rangeEst float64
	cost0    int64 // meter total at scan start
	done     bool
	dead     bool // abandoned by competition
	point    bool // the range is one full key value (Index.PointRange)
}

func newJscan(ec *ExecCtx, q *Query, cfg Config, model estimate.CostModel, ests []estimate.IndexEstimate, borrow *ridQueue, trc *tracer) *jscan {
	j := &jscan{
		q:              q,
		cfg:            cfg,
		model:          model,
		ests:           ests,
		trc:            trc,
		ec:             ec,
		meter:          newMeter(ec),
		filter:         rid.TrueFilter{},
		guaranteedBest: model.TscanCost(),
		tscanCost:      model.TscanCost(),
		borrow:         borrow,
		borrowActive:   borrow != nil,
	}
	return j
}

func (j *jscan) name() string { return "Jscan" }

// backgroundScan implementation.

func (j *jscan) bgComplete() *rid.Container { return j.complete }
func (j *jscan) bgNames() []string          { return j.completeNames }
func (j *jscan) bgRecommendTscan() bool     { return j.recommendTscan }

// bgKill abandons the background: open cursors are closed (releasing
// their leaf pins), containers are discarded, and the scan is marked
// done. It doubles as the stepper release hook, so it must be
// idempotent and safe mid-race.
func (j *jscan) bgKill() {
	if j.scan.cur != nil {
		j.scan.cur.Close()
		j.scan.cur = nil
	}
	if j.race != nil {
		// A dead leg's cursor was already closed when competition killed
		// it; Close is idempotent, but skipping keeps the release path
		// honest about who owns which pin.
		if !j.race.a.dead {
			j.race.a.cur.Close()
		}
		if !j.race.b.dead {
			j.race.b.cur.Close()
		}
		j.race = nil
	}
	if j.complete != nil {
		j.complete.Discard()
		j.complete = nil
	}
	if j.list != nil {
		j.list.Discard()
		j.list = nil
	}
	j.closeBorrow()
	j.done = true
}

// release implements stepper cleanup; cancellation unwinds through it.
func (j *jscan) release() { j.bgKill() }

// borrowStreamComplete reports whether the borrow queue received every
// candidate RID (its feeding scan was not abandoned).
func (j *jscan) borrowStreamComplete() bool { return j.borrowComplete }

func (j *jscan) closeBorrow() {
	if j.borrowActive {
		j.borrow.closed = true
		j.borrowActive = false
	}
}

// currentGuaranteedBest returns the cost the competition compares
// against. In the [MoHa90] static-threshold baseline, it is frozen at
// the initial Tscan cost and never readjusted to fresher complete-list
// costs — exactly the limitation the paper calls out.
func (j *jscan) currentGuaranteedBest() float64 {
	if j.cfg.StaticThresholds {
		return j.tscanCost
	}
	return j.guaranteedBest
}

func (j *jscan) step() (bool, error) {
	if j.done {
		return true, nil
	}
	if j.race == nil && j.scan.cur == nil {
		if err := j.nextScan(); err != nil || j.done {
			return j.done, err
		}
	}
	if j.race != nil {
		return j.done, j.stepRace()
	}
	return j.done, j.stepSequential()
}

// finish concludes the joint scan: the last complete RID list is the
// outcome, or Tscan optimality is reported when no list survived.
func (j *jscan) finish() {
	j.done = true
	j.closeBorrow()
	j.recommendTscan = j.complete == nil
	if j.trc.decide(EvScanComplete) {
		ev := TraceEvent{Kind: EvScanComplete, Scan: j.name(), ActualIO: j.cost(), Detail: "no complete RID list, recommending Tscan"}
		if !j.recommendTscan {
			ev.Indexes, ev.Detail = j.completeNames, fmt.Sprintf("final RID list %d rids", j.complete.Len())
		}
		j.trc.emit(ev)
	}
	if j.onDone != nil {
		j.onDone(j.completeNames)
	}
}

// nextScan moves on to the next worthwhile index or race, concluding
// the joint scan when none remains.
func (j *jscan) nextScan() error {
	started, err := j.startNextScan()
	if err == nil && !started {
		j.finish()
	}
	return err
}

// startNextScan advances to the next worthwhile index and opens its
// cursor; it returns false when no indexes remain. It may instead start
// a race when the next two estimates are too close to call. A seek that
// fails is an error, never "index skipped": the scan must not go on to
// conclude anything from a list it could not read.
func (j *jscan) startNextScan() (bool, error) {
	for j.idx < len(j.ests) {
		e := j.ests[j.idx]
		// Pre-check: an index whose scan alone is projected to exceed
		// the direct-competition limit is skipped outright.
		scanEst := j.model.LeafPages(e.RIDs, e.Index.Tree.AvgLeafEntries()) + float64(e.Index.Tree.Height())
		if !j.cfg.DisableCompetition && scanEst >= j.cfg.Criterion.ScanCostFrac*j.currentGuaranteedBest() {
			if j.trc.decide(EvScanAbandoned) {
				j.trc.emit(TraceEvent{Kind: EvScanAbandoned, Scan: j.name(), Indexes: []string{e.Index.Name}, EstimatedIO: scanEst, ActualIO: j.cost(),
					Detail: fmt.Sprintf("skipped before scan (scan est %.0f vs best %.0f)", scanEst, j.currentGuaranteedBest())})
			}
			j.idx++
			continue
		}
		// Race the next two when their order is uncertain.
		if j.cfg.RaceFactor > 0 && j.idx+1 < len(j.ests) {
			n := j.ests[j.idx+1]
			if n.RIDs <= j.cfg.RaceFactor*e.RIDs && !e.Exact {
				if err := j.startRace(e, n); err != nil {
					return false, err
				}
				j.idx += 2
				return true, nil
			}
		}
		if err := j.openSequential(e); err != nil {
			return false, err
		}
		j.idx++
		return true, nil
	}
	return false, nil
}

// refreshFilter builds the filter of the best complete list for the
// scan or race that is opening.
func (j *jscan) refreshFilter() {
	if j.filter == nil {
		j.filter = j.complete.Filter()
	}
}

func (j *jscan) openSequential(e estimate.IndexEstimate) error {
	j.refreshFilter()
	leg, err := j.openLeg(e)
	if err != nil {
		return err
	}
	j.scan = leg
	j.list = rid.NewContainerTracked(j.q.Table.Pool(), j.cfg.RID, j.tr)
	j.trc.st.scansStarted++
	if j.trc.decide(EvScanStarted) {
		j.trc.emit(TraceEvent{Kind: EvScanStarted, Scan: j.name(), Indexes: []string{e.Index.Name},
			EstimatedIO: j.model.LeafPages(e.RIDs, e.Index.Tree.AvgLeafEntries()) + float64(e.Index.Tree.Height()),
			ActualIO:    j.cost(), Detail: fmt.Sprintf("est %.0f rids", e.RIDs)})
	}
	return nil
}

// openLeg seeks e's key range, charging the jscan meter, and returns the
// scan as a leg.
func (j *jscan) openLeg(e estimate.IndexEstimate) (raceLeg, error) {
	cur, err := e.Index.Tree.SeekTracked(e.Lo, e.Hi, j.tr)
	if err != nil {
		return raceLeg{}, err
	}
	return raceLeg{
		ix:       e.Index,
		cur:      cur,
		local:    keyKernel(j.q.Restriction, j.q.Binds, e.Index),
		point:    e.Index.PointRange(e.Lo, e.Hi),
		rangeEst: max(e.RIDs, 1),
		cost0:    j.total(),
	}, nil
}

// pull reads the leg's next batch from src (l.cur, or an Sscan's
// cursor), counting every entry read in l.seen.
func (l *raceLeg) pull(src entryCursor, budget int, filter rid.Filter, sc *acceptScratch) (n int, kept []storage.RID, err error) {
	n, kept, err = pull(src, budget, l.ix, l.local, l.out, filter, l.point, sc)
	l.seen += n
	return n, kept, err
}

// abandonProjected is Section 6's two-stage check, made once a scan
// has seen a full step: the list so far, scaled up by the share of the
// estimated range already seen, projects the final stage's cost, and the
// criterion weighs it and the scan's own cost against the guaranteed
// best.
func abandonProjected(cfg *Config, model estimate.CostModel, listLen, seen int, rangeEst, scanCost, best float64) (projFinal float64, abandon bool) {
	if cfg.DisableCompetition || seen < stepEntries {
		return 0, false
	}
	projFinal = model.JscanFinalCost(float64(listLen) / min(float64(seen)/rangeEst, 1))
	return projFinal, cfg.Criterion.Abandon(projFinal, scanCost, best)
}

// ensureBuffers allocates the shared batch scratch.
func (j *jscan) ensureBuffers() {
	if j.sc == nil {
		j.sc = newAcceptScratch(firstBatch)
	}
}

// stepSequential advances the current single-index scan by one step of
// stepEntries entries, consumed in leaf-sized batches. Batches are
// sliced to the step budget, never across it, so the competition check
// below fires at exactly the same entry counts as per-entry iteration.
func (j *jscan) stepSequential() error {
	j.ensureBuffers()
	sq := &j.scan
	for budget := stepEntries; budget > 0; {
		n, kept, err := sq.pull(sq.cur, budget, j.filter, j.sc)
		if err != nil {
			return err
		}
		if n == 0 {
			return j.completeScan()
		}
		budget -= n
		if len(kept) > 0 {
			if err := j.list.AppendBatch(kept); err != nil {
				return err
			}
			// Borrowing stays open only until the first list completes
			// or is abandoned, so these RIDs always come from the first
			// scan.
			if j.borrowActive {
				for _, r := range kept {
					j.borrow.push(r)
				}
			}
		}
	}
	scanCost := float64(j.total() - sq.cost0)
	if projFinal, abandon := abandonProjected(&j.cfg, j.model, j.list.Len(), sq.seen, sq.rangeEst, scanCost, j.currentGuaranteedBest()); abandon {
		if j.trc.decide(EvScanAbandoned) {
			j.trc.emit(TraceEvent{Kind: EvScanAbandoned, Scan: j.name(), Indexes: []string{sq.ix.Name}, EstimatedIO: projFinal, ActualIO: j.cost(),
				Detail: fmt.Sprintf("proj final %.0f, scan cost %.0f, best %.0f", projFinal, scanCost, j.currentGuaranteedBest())})
		}
		return j.abandonCurrent()
	}
	return nil
}

// completeScan adopts or rejects the finished RID list.
func (j *jscan) completeScan() error {
	n := j.list.Len()
	newFinal := j.model.JscanFinalCost(float64(n))
	if j.scan.ix != nil {
		if j.borrowActive {
			j.borrowComplete = true
			j.closeBorrow()
		}
		if j.trc.decide(EvScanComplete) {
			detail := fmt.Sprintf("%d rids, final cost %.0f", n, newFinal)
			if newFinal >= j.guaranteedBest {
				detail = fmt.Sprintf("complete but useless (%d rids, final %.0f >= best %.0f)", n, newFinal, j.guaranteedBest)
			}
			j.trc.emit(TraceEvent{Kind: EvScanComplete, Scan: j.name(), Indexes: []string{j.scan.ix.Name},
				EstimatedIO: newFinal, ActualIO: j.cost(), Detail: detail})
		}
		if newFinal < j.guaranteedBest {
			if j.complete != nil {
				j.complete.Discard()
			}
			j.complete = j.list
			j.completeNames = append(j.completeNames, j.scan.ix.Name)
			j.filter = nil
			j.guaranteedBest = newFinal
		} else {
			j.list.Discard()
		}
	}
	j.scan.cur = nil
	j.list = nil
	return j.nextScan()
}

// abandonCurrent discards the in-flight scan and moves on.
func (j *jscan) abandonCurrent() error {
	j.closeBorrow()
	if j.list != nil {
		j.list.Discard()
	}
	if j.scan.cur != nil {
		j.scan.cur.Close()
	}
	j.scan.cur = nil
	j.list = nil
	return j.nextScan()
}

// startRace opens simultaneous cursors on two adjacent indexes. When
// the second seek fails the first leg's cursor is closed before the
// error is returned: no race state exists yet for bgKill to find it.
func (j *jscan) startRace(a, b estimate.IndexEstimate) error {
	j.refreshFilter()
	legA, err := j.openLeg(a)
	if err != nil {
		return err
	}
	legB, err := j.openLeg(b)
	if err != nil {
		legA.cur.Close()
		return err
	}
	j.race = &raceState{a: legA, b: legB}
	// Racing steals the borrow stream's stability; close it.
	j.closeBorrow()
	j.trc.st.raced = true
	if j.trc.decide(EvRaceStarted) {
		j.trc.emit(TraceEvent{Kind: EvRaceStarted, Scan: j.name(), Indexes: []string{a.Index.Name, b.Index.Name},
			Detail: fmt.Sprintf("est %.0f vs %.0f rids", a.RIDs, b.RIDs)})
	}
	return nil
}

// stepRace advances both racing legs half a step each — the paper's
// "simultaneous" scan as a cooperative interleaving, at every
// Parallelism, so a race's winner and cost are functions of plan and
// data. The legs share the jscan meter; half its delta since the race
// opened stands in for each leg's own scan cost. The race ends when a
// leg completes its range (it wins and becomes the list; the loser's
// partial list is refiltered and continued), when a leg overflows the
// in-memory budget (the race is called for the other leg), or when
// competition kills a leg.
func (j *jscan) stepRace() error {
	j.ensureBuffers()
	r := j.race
	const half = stepEntries / 2
	for _, leg := range []*raceLeg{&r.a, &r.b} {
		if leg.done || leg.dead {
			continue
		}
		for budget := half; budget > 0; {
			n, kept, err := leg.pull(leg.cur, budget, j.filter, j.sc)
			if err != nil {
				return err
			}
			if n == 0 {
				leg.done = true
				break
			}
			budget -= n
			leg.rids = append(leg.rids, kept...)
		}
		if leg.done {
			continue
		}
		// Competition can kill a leg mid-race.
		if projFinal, abandon := abandonProjected(&j.cfg, j.model, len(leg.rids), leg.seen, leg.rangeEst, float64(j.total()-leg.cost0)/2, j.currentGuaranteedBest()); abandon {
			leg.dead = true
			leg.cur.Close()
			if j.trc.decide(EvScanAbandoned) {
				j.trc.emit(TraceEvent{Kind: EvScanAbandoned, Scan: j.name(), Indexes: []string{leg.ix.Name}, EstimatedIO: projFinal, ActualIO: j.cost(),
					Detail: fmt.Sprintf("race leg abandoned (proj final %.0f)", projFinal)})
			}
		}
	}
	var win *raceLeg
	if r.a.done {
		win = &r.a
	} else if r.b.done {
		win = &r.b
	}
	return j.resolveRace(win)
}

// resolveRace is the race endgame. The race ends when a leg completed
// its range — win, named by stepRace, which alone knows who finished
// first: it becomes the new list and the loser's partial list is
// refiltered and continued — when competition killed both legs, or when
// a leg filled the in-memory RID budget. Otherwise the race goes on.
func (j *jscan) resolveRace(win *raceLeg) error {
	r := j.race
	a, b := &r.a, &r.b
	full := func(l *raceLeg) bool { return len(l.rids) >= j.cfg.RID.MemBudget }
	switch {
	case win != nil:
		loser := a
		if win == a {
			loser = b
		}
		j.race = nil
		if err := j.adoptRaceWinner(win); err != nil {
			// The loser will not be continued; release its pin before
			// surfacing the error (Close is idempotent for dead legs).
			loser.cur.Close()
			return err
		}
		if !loser.dead {
			return j.continueLoser(loser)
		}
		if j.scan.cur == nil {
			return j.nextScan()
		}
	case a.dead && b.dead:
		j.race = nil
		if j.trc.decide(EvRaceResolved) {
			j.trc.emit(TraceEvent{Kind: EvRaceResolved, Scan: j.name(), Indexes: []string{a.ix.Name, b.ix.Name},
				ActualIO: j.cost(), Detail: "both race legs abandoned"})
		}
		return j.nextScan()
	case full(a) || full(b):
		// The race must not continue beyond the memory buffer
		// (Section 6); call it for the shorter list and continue that
		// leg sequentially, dropping the other (it will not be
		// rescanned: its projection was clearly unpromising).
		keep, drop := a, b
		if len(b.rids) < len(a.rids) {
			keep, drop = b, a
		}
		if keep.dead {
			// The shorter leg was killed by competition before the other
			// overflowed; the surviving leg is the only continuation.
			keep, drop = drop, keep
		}
		drop.cur.Close()
		j.race = nil
		if j.trc.decide(EvRaceResolved) {
			j.trc.emit(TraceEvent{Kind: EvRaceResolved, Scan: j.name(), Indexes: []string{keep.ix.Name, drop.ix.Name}, ActualIO: j.cost(),
				Detail: fmt.Sprintf("race hit memory budget, continuing %s, dropping %s", keep.ix.Name, drop.ix.Name)})
		}
		return j.continueLoser(keep)
	}
	return nil
}

// adoptRaceWinner turns the winning leg's RIDs into a completed list.
func (j *jscan) adoptRaceWinner(w *raceLeg) error {
	n := len(w.rids)
	newFinal := j.model.JscanFinalCost(float64(n))
	if w.dead || newFinal >= j.guaranteedBest {
		if j.trc.decide(EvRaceResolved) {
			j.trc.emit(TraceEvent{Kind: EvRaceResolved, Scan: j.name(), Indexes: []string{w.ix.Name}, EstimatedIO: newFinal, ActualIO: j.cost(),
				Detail: fmt.Sprintf("race winner %s useless (%d rids)", w.ix.Name, n)})
		}
		return nil
	}
	c := rid.NewContainerTracked(j.q.Table.Pool(), j.cfg.RID, j.tr)
	if err := c.AppendBatch(w.rids); err != nil {
		// The half-built list (and any temp table it spilled) must not
		// leak when the copy fails.
		c.Discard()
		return err
	}
	if j.complete != nil {
		j.complete.Discard()
	}
	j.complete = c
	j.completeNames = append(j.completeNames, w.ix.Name)
	j.filter = nil
	j.guaranteedBest = newFinal
	if j.trc.decide(EvRaceResolved) {
		j.trc.emit(TraceEvent{Kind: EvRaceResolved, Scan: j.name(), Indexes: []string{w.ix.Name}, EstimatedIO: newFinal, ActualIO: j.cost(),
			Detail: fmt.Sprintf("race winner %s, %d rids, final cost %.0f", w.ix.Name, n, newFinal)})
	}
	return nil
}

// continueLoser refilters the losing leg's partial list against the
// (possibly new) filter — one bulk probe per step-sized chunk — and
// resumes it as the current sequential scan. The filter is exact, so
// nothing that cannot intersect survives into the continued list. The
// cursor is adopted before anything can fail, so an error here unwinds
// through bgKill like any other step error.
func (j *jscan) continueLoser(l *raceLeg) error {
	j.ensureBuffers()
	j.refreshFilter()
	j.scan = *l
	j.scan.rids = nil // they move to list, refiltered
	j.list = rid.NewContainerTracked(j.q.Table.Pool(), j.cfg.RID, j.tr)
	for rest := l.rids; len(rest) > 0; {
		n := min(len(rest), len(j.sc.keep))
		if err := j.list.AppendBatch(keepMembers(j.filter, rest[:n], j.sc.keep, rest[:0])); err != nil {
			return err
		}
		rest = rest[n:]
	}
	j.trc.st.scansStarted++
	if j.trc.decide(EvScanStarted) {
		j.trc.emit(TraceEvent{Kind: EvScanStarted, Scan: j.name(), Indexes: []string{l.ix.Name}, ActualIO: j.cost(),
			Detail: fmt.Sprintf("continuing %s with %d prefiltered rids", l.ix.Name, j.list.Len())})
	}
	return nil
}
