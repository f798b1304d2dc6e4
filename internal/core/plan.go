package core

import (
	"errors"
	"fmt"
	"strings"

	"rdbdyn/internal/estimate"
)

// ErrPlanStale reports that a pinned plan references an index that no
// longer exists; the caller must drop the plan and re-plan.
var ErrPlanStale = errors.New("core: pinned plan references a missing index")

// Plan is the one pinned single-table plan representation: a tactic,
// the index order it runs over, and the entry estimates that seeded it.
// The static planner builds one from mean-point costs, the engine's plan
// cache distills one from a completed dynamic retrieval (CapturePlan),
// and Optimizer.RunPlan replays either. It names indexes rather than
// holding pointers, so a dropped-and-recreated index is re-resolved (or
// detected missing) at replay time, and holds no bind values — the
// replay recomputes its scan bounds from the current bindings, exactly
// as a frozen plan in the paper "still sees run-time values"; what it
// cannot do is change strategy.
type Plan struct {
	// Tactic is the tacticKind string of the pinned arrangement.
	Tactic string
	// Indexes is the index order to replay: for sscan/fscan the single
	// chosen index; for background-only the adopted Jscan order; for
	// fast-first the borrow source; for sorted the order-delivering
	// index followed by the filter Jscan's order. Empty for tscan.
	Indexes []string
	// RIDs carries the initial-stage entry estimates parallel to
	// Indexes (0 when unknown), seeding the replay Jscan's bookkeeping.
	RIDs []float64
}

func (p *Plan) String() string {
	if p == nil {
		return "<none>"
	}
	if len(p.Indexes) == 0 {
		return p.Tactic
	}
	return p.Tactic + "(" + strings.Join(p.Indexes, ",") + ")"
}

// CapturePlan distills a completed retrieval's stats into a replayable
// Plan. It returns ok=false when the run is not worth caching:
// the competition intervened mid-flight (strategy switch, race, borrow
// overflow, mid-scan abandonment, a completed-but-useless list), the
// arrangement is not replayable deterministically, or the tactic has
// no frozen form — a join's among them. The test reads the decision
// facts the retrieval recorded: a capturable run's replay performs
// exactly the original's productive work — scans that were merely
// *skipped* before starting cost nothing and do not block capture.
func CapturePlan(st *RetrievalStats) (*Plan, bool) {
	if st.raced || st.overflowed {
		return nil, false
	}
	if st.switchedTo != "" {
		// One exactly-replayable switch exists: a background-only Jscan
		// that skipped every index up front (zero scan I/O, no RID list
		// materialized) and recommended Tscan before anything ran. The
		// whole retrieval was one sequential scan; freeze it as tscan.
		if st.Tactic == "background-only" && st.switchedTo == "Tscan" && st.scansStarted == 0 &&
			len(st.WinningOrder) == 0 && st.FinalListLen < 0 {
			return &Plan{Tactic: "tscan"}, true
		}
		return nil, false
	}
	// Every Jscan scan that opened must have been adopted, and the
	// adopted order is then the started one: only a race (ruled out
	// above) adopts a scan out of its opening order. A
	// started-but-unadopted scan (mid-flight abandonment or a
	// complete-but-useless list) burned I/O the replay would not
	// reproduce. A Uscan opens no Jscan scan, so it never qualifies.
	jscanClean := st.scansStarted > 0 && st.scansStarted == len(st.WinningOrder)
	ridsFor := func(names []string) []float64 {
		out := make([]float64, len(names))
		for i, n := range names {
			for _, es := range st.Estimates {
				if es.Index == n {
					out[i] = es.RIDs
					break
				}
			}
		}
		return out
	}
	order := func(names ...string) *Plan {
		names = append(names, st.WinningOrder...)
		return &Plan{Tactic: st.Tactic, Indexes: names, RIDs: ridsFor(names)}
	}
	switch st.Tactic {
	case "tscan":
		return &Plan{Tactic: "tscan"}, true
	case "sscan", "fscan":
		if st.planIndex == "" || st.scansStarted > 0 {
			return nil, false
		}
		ix := []string{st.planIndex}
		return &Plan{Tactic: st.Tactic, Indexes: ix, RIDs: ridsFor(ix)}, true
	case "background-only":
		if !jscanClean {
			return nil, false
		}
		return order(), true
	case "fast-first":
		// Only the single-source borrow arrangement replays exactly: a
		// multi-index run's later scans overlap the foreground drain.
		if !jscanClean || len(st.WinningOrder) != 1 {
			return nil, false
		}
		return order(), true
	case "sorted":
		// The replay pairs the order-delivering Fscan with the adopted
		// filter order.
		if st.planIndex == "" || !jscanClean {
			return nil, false
		}
		return order(st.planIndex), true
	default:
		// index-only (always race-resolved), sort(...), empty-range,
		// join, error: no frozen form.
		return nil, false
	}
}

// RunPlan replays a pinned plan for q, skipping estimation and
// competition: scan bounds are recomputed from the current bindings
// (zero I/O), the pinned arrangement executes with competition
// disabled, and a contradictory range still short-circuits to end of
// data. If q requests an order the plan does not deliver, the result is
// materialized and sorted, as a static plan's SORT node would. Row
// content, order, and productive I/O of a captured plan match the
// dynamic run it was captured from, as long as the data hasn't drifted;
// the saving is the estimation stage and the competition bookkeeping.
//
// A replay counts a query and a tactic win but feeds neither the
// estimate-error histogram nor the learned corrections. ErrPlanStale
// surfaces (through the Rows) when a referenced index is gone.
func (o *Optimizer) RunPlan(ec *ExecCtx, q *Query, p *Plan) Rows {
	rows, err := o.runPlan(ec, q, p)
	return o.deliver(ec, rows, err)
}

func (o *Optimizer) runPlan(ec *ExecCtx, q *Query, p *Plan) (Rows, error) {
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, errors.New("core: nil plan")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	a, err := p.arrangement(q)
	if err != nil {
		return nil, err
	}
	cl := Classify(q)
	if cl.EmptyRange {
		st := RetrievalStats{FinalListLen: -1, QueryID: nextQueryID()}
		return o.emptyRange(ec, q, st, "pinned plan: contradictory sargable range, end of data at once"), nil
	}
	// Only the scans one index drives — sscan, fscan, and the sorted
	// tactic's Fscan — can deliver an order, forward or in reverse.
	if len(q.OrderBy) > 0 && (a.ix == nil || !a.ix.DeliversOrder(q.OrderBy)) {
		return sortNode(q, func(inner *Query) (Rows, error) { return o.pinned(ec, inner, a, Classify(inner)) })
	}
	return o.pinned(ec, q, a, cl)
}

// pinnedTactics are the arrangements with a pinned form. index-only is
// always race-resolved, so it has none.
var pinnedTactics = map[string]tacticKind{
	"tscan":           tacticTscan,
	"sscan":           tacticSscan,
	"fscan":           tacticFscan,
	"background-only": tacticBackgroundOnly,
	"fast-first":      tacticFastFirst,
	"sorted":          tacticSorted,
}

// arrangement resolves p's index names against q's table into the
// arrangement it pins, with scan bounds from q's bindings: the first
// index drives an sscan, fscan or sorted foreground, and the Jscan of
// background-only, fast-first and sorted runs over the rest in order,
// seeded with p.RIDs.
func (p *Plan) arrangement(q *Query) (a arrangement, err error) {
	tactic, ok := pinnedTactics[p.Tactic]
	if !ok {
		return a, fmt.Errorf("core: no pinned form for tactic %q", p.Tactic)
	}
	// need: the indexes the arrangement runs over, at least; fg: how
	// many of them drive the foreground; bg: how many the Jscan runs over.
	need, fg, bg := 1, 0, len(p.Indexes)
	switch tactic {
	case tacticTscan:
		need, bg = 0, 0
	case tacticSscan, tacticFscan:
		fg, bg = 1, 0
	case tacticSorted:
		need, fg, bg = 2, 1, bg-1 // the order index and a filter index
	}
	if len(p.Indexes) < need {
		return a, fmt.Errorf("core: %s plan needs %d indexes, has %d", p.Tactic, need, len(p.Indexes))
	}
	a.tactic = tactic
	if bg > 0 {
		a.ests = make([]estimate.IndexEstimate, 0, bg)
	}
	for i, name := range p.Indexes {
		ix := q.Table.IndexByName(name)
		if ix == nil {
			return a, fmt.Errorf("%w: %s.%s", ErrPlanStale, q.Table.Name, name)
		}
		switch {
		case i < fg:
			a.ix = ix
			a.lo, a.hi, _, _ = ix.RestrictionBounds(q.Restriction, q.Binds)
		case bg > 0:
			e := estimate.IndexEstimate{Index: ix}
			e.Lo, e.Hi, e.Sargable, _ = ix.RestrictionBounds(q.Restriction, q.Binds)
			if i < len(p.RIDs) {
				e.RIDs = p.RIDs[i]
			}
			a.ests = append(a.ests, e)
		}
	}
	return a, nil
}

// pinned arranges a resolved plan for q through the dynamic runner's
// arrange: a replay differs from a dynamic run only in its config —
// competition and racing off — and in skipping estimation.
func (o *Optimizer) pinned(ec *ExecCtx, q *Query, a arrangement, cl Classification) (Rows, error) {
	// Competition off: the replay scans exactly the pinned order — no
	// skips, no races, no abandonment.
	cfg := o.cfg
	cfg.DisableCompetition = true
	cfg.RaceFactor = -1
	r := o.newRetrieval(ec, q, cfg, RetrievalStats{FinalListLen: -1, QueryID: nextQueryID()})
	r.pinned = true
	a.desc = len(q.OrderBy) > 0 && q.OrderDesc
	// Only a Jscan needs the sampled cluster ratio: building the full
	// cost model for a plain scan would spend pool I/O (and optimizer RNG
	// draws) a static plan never spent.
	if r.model = tableCostModel(q); len(a.ests) > 0 {
		r.model = o.costModel(q, cl)
	}
	var estIO float64
	switch a.tactic {
	case tacticTscan:
		estIO = r.model.TscanCost()
	case tacticFastFirst, tacticBackgroundOnly:
		estIO = bgPlanEst(r.model, a.ests[0])
	}
	return r, o.arrange(r, a, estIO)
}
