package core

import (
	"fmt"

	"rdbdyn/internal/btree"
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// uscan is the union scan: the OR counterpart of Jscan and an
// implementation of the extension direction the paper's Section 7
// names ("Covering ORs ... is a rich source for extending the tactics
// and the architecture").
//
// When the restriction contains a top-level OR whose every disjunct is
// sargable on some index, the union of the per-disjunct index ranges is
// a complete candidate RID list: scanning the legs in sequence and
// concatenating their RIDs (duplicates removed by the final stage's
// sort) produces the same "shortest possible RID list or Tscan
// recommendation" contract Jscan has, so a uscan slots into every
// tactic as the background process — including fast-first borrowing.
//
// The union runs the same two-stage competition as Jscan, but the
// abandonment is all-or-nothing: a union with a leg missing is not a
// complete candidate list, so when the projected final cost approaches
// the Tscan guarantee the whole union is abandoned.
type uscan struct {
	meter
	q     *Query
	cfg   Config
	model estimate.CostModel
	legs  []unionLeg
	trc   *tracer
	ec    *ExecCtx

	idx      int // current leg
	cur      *btree.Cursor
	list     *rid.Container
	seen     int
	totalEst float64

	borrow       *ridQueue
	borrowActive bool
	// borrowed holds every RID pushed to borrow when the legs can
	// overlap (more than one leg), so a row two disjuncts match is
	// fetched and delivered once; nil otherwise.
	borrowed map[storage.RID]struct{}

	done           bool
	recommendTscan bool
	names          []string

	sc *acceptScratch // the leg kernel's scratch, sized on first use
}

// unionLeg is one disjunct's index scan.
type unionLeg struct {
	Index *catalog.Index
	Lo    []byte
	Hi    []byte
	// Local is the disjunct as a key kernel when the index's key columns
	// can evaluate it; nil otherwise.
	Local *rowKernel
	// Est is the estimated RID count of the leg's range.
	Est float64
}

// unionLegs maps the disjuncts of the first index-coverable top-level
// OR conjunct onto index scans. It returns nil when no such conjunct
// exists (some disjunct is unsargable on every index). Estimation I/O
// is charged to tr (nil = untracked).
func unionLegs(q *Query, tr *storage.Tracker) []unionLeg {
	for _, cj := range expr.Conjuncts(q.Restriction) {
		or, ok := cj.(*expr.Or)
		if !ok || len(or.Kids) == 0 {
			continue
		}
		legs := make([]unionLeg, 0, len(or.Kids))
		covered := true
		for _, d := range or.Kids {
			leg, ok := legForDisjunct(q, d, tr)
			if !ok {
				covered = false
				break
			}
			legs = append(legs, leg)
		}
		if covered {
			return legs
		}
	}
	return nil
}

// legForDisjunct finds the most selective index whose bounds cover the
// disjunct.
func legForDisjunct(q *Query, d expr.Expr, tr *storage.Tracker) (unionLeg, bool) {
	var (
		best    unionLeg
		bestEst = -1.0
	)
	for _, ix := range q.Table.Indexes {
		lo, hi, n, empty := ix.RestrictionBounds(d, q.Binds)
		if n == 0 {
			continue
		}
		if empty {
			// This disjunct matches nothing: a zero-entry leg.
			return unionLeg{Index: ix, Lo: []byte{0xFF, 0xFF}, Hi: []byte{0xFF, 0xFF}, Est: 0}, true
		}
		if lo == nil && hi == nil {
			continue
		}
		rids, _, err := ix.Tree.EstimateRangeRefinedTracked(lo, hi, tr)
		if err != nil {
			continue
		}
		if bestEst < 0 || rids < bestEst {
			best = unionLeg{Index: ix, Lo: lo, Hi: hi, Est: rids}
			// What the key decides of the disjunct beyond its bounding
			// range is checked on the entry.
			best.Local = keyKernel(d, q.Binds, ix)
			bestEst = rids
		}
	}
	return best, bestEst >= 0
}

func newUscan(ec *ExecCtx, q *Query, cfg Config, model estimate.CostModel, legs []unionLeg, borrow *ridQueue, trc *tracer) *uscan {
	m := newMeter(ec)
	u := &uscan{
		q:            q,
		cfg:          cfg,
		model:        model,
		legs:         legs,
		trc:          trc,
		ec:           ec,
		meter:        m,
		list:         rid.NewContainerTracked(q.Table.Pool(), cfg.RID, m.tr),
		borrow:       borrow,
		borrowActive: borrow != nil,
	}
	if borrow != nil && len(legs) > 1 {
		u.borrowed = make(map[storage.RID]struct{})
	}
	for _, l := range legs {
		u.totalEst += l.Est
	}
	if u.totalEst < 1 {
		u.totalEst = 1
	}
	return u
}

func (u *uscan) name() string { return "Uscan" }

// backgroundScan implementation.

func (u *uscan) bgComplete() *rid.Container { return u.list }
func (u *uscan) bgNames() []string          { return u.names }
func (u *uscan) bgRecommendTscan() bool     { return u.recommendTscan }

func (u *uscan) bgKill() {
	if u.cur != nil {
		u.cur.Close()
		u.cur = nil
	}
	if u.list != nil {
		u.list.Discard()
		u.list = nil
	}
	u.closeBorrow()
	u.done = true
}

// release implements stepper cleanup; cancellation unwinds through it.
func (u *uscan) release() { u.bgKill() }

func (u *uscan) closeBorrow() {
	if u.borrowActive {
		u.borrow.closed = true
		u.borrowActive = false
	}
}

// borrowStreamComplete: the union's borrow stream covers every
// candidate only when all legs finished, i.e. the union was not
// abandoned.
func (u *uscan) borrowStreamComplete() bool {
	return u.done && !u.recommendTscan
}

func (u *uscan) step() (bool, error) {
	if u.done {
		return true, nil
	}
	if u.cur == nil {
		if u.idx >= len(u.legs) {
			u.finish()
			return u.done, nil
		}
		leg := u.legs[u.idx]
		cur, err := leg.Index.Tree.SeekTracked(leg.Lo, leg.Hi, u.tr)
		if err != nil {
			return u.done, err
		}
		u.cur = cur
		u.names = append(u.names, leg.Index.Name)
		if u.trc.decide(EvScanStarted) {
			u.trc.emit(TraceEvent{Kind: EvScanStarted, Scan: u.name(), Indexes: []string{leg.Index.Name}, ActualIO: u.cost(),
				Detail: fmt.Sprintf("leg %d/%d, est %.0f rids", u.idx+1, len(u.legs), leg.Est)})
		}
	}
	if u.sc == nil {
		u.sc = newAcceptScratch(firstBatch)
	}
	n, done, err := u.scanLeg()
	u.seen += n
	if err != nil {
		return u.done, err
	}
	if done {
		u.cur = nil
		u.idx++
		if u.idx >= len(u.legs) {
			u.finish()
		}
		return u.done, nil
	}
	// Two-stage competition: project the final union size; the
	// guaranteed best is always Tscan (no intersection can improve
	// a union mid-flight).
	scanCost := float64(u.total())
	if projFinal, abandon := abandonProjected(&u.cfg, u.model, u.list.Len(), u.seen, u.totalEst, scanCost, u.model.TscanCost()); abandon {
		if u.trc.decide(EvScanAbandoned) {
			u.trc.emit(TraceEvent{Kind: EvScanAbandoned, Scan: u.name(), Indexes: u.names, EstimatedIO: projFinal, ActualIO: u.cost(),
				Detail: fmt.Sprintf("union abandoned (proj final %.0f, scan cost %.0f, Tscan %.0f)", projFinal, scanCost, u.model.TscanCost())})
		}
		u.abandon()
	}
	return u.done, nil
}

// scanLeg is the union-leg kernel, one step of the current leg: its
// cursor's entries, in leaf-sized batches, pass the leg's local disjunct
// (pull with no previous filter) and the survivors join the
// union list and the live borrow queue. Batches are sliced to the step
// budget, never across it, so the competition check fires at the same
// entry counts as per-entry iteration would. n counts the entries
// consumed; done reports that the leg is exhausted.
func (u *uscan) scanLeg() (n int, done bool, _ error) {
	leg := &u.legs[u.idx]
	for n < stepEntries {
		got, kept, err := pull(u.cur, stepEntries-n, leg.Index, leg.Local, nil, rid.TrueFilter{}, false, u.sc)
		n += got
		if err != nil {
			return n, false, err
		}
		if got == 0 {
			return n, true, nil
		}
		if err := u.list.AppendBatch(kept); err != nil {
			return n, false, err
		}
		if u.borrowActive {
			for _, r := range kept {
				if u.borrowed != nil {
					if _, dup := u.borrowed[r]; dup {
						continue
					}
					u.borrowed[r] = struct{}{}
				}
				u.borrow.push(r)
			}
		}
	}
	return n, false, nil
}

func (u *uscan) finish() {
	u.done = true
	u.closeBorrow()
	if u.trc.decide(EvScanComplete) {
		u.trc.emit(TraceEvent{Kind: EvScanComplete, Scan: u.name(), Indexes: u.names, ActualIO: u.cost(),
			Detail: fmt.Sprintf("union complete, %d rids", u.list.Len())})
	}
}

func (u *uscan) abandon() {
	if u.cur != nil {
		u.cur.Close()
		u.cur = nil
	}
	u.list.Discard()
	u.list = nil
	u.recommendTscan = true
	u.done = true
	u.closeBorrow()
}

// dedupSorted removes duplicate RIDs from a sorted slice in place
// (union legs may overlap).
func dedupSorted(rids []storage.RID) []storage.RID {
	if len(rids) < 2 {
		return rids
	}
	out := rids[:1]
	for _, r := range rids[1:] {
		if r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}
