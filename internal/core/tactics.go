package core

import (
	"fmt"
	"strings"

	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/feedback"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// tacticKind names the arrangement chosen at start-retrieval time.
type tacticKind uint8

const (
	tacticTscan tacticKind = iota
	tacticSscan
	tacticFscan
	tacticBackgroundOnly
	tacticFastFirst
	tacticSorted
	tacticIndexOnly

	// tacticKindCount sizes per-tactic metric arrays.
	tacticKindCount
)

// backgroundScan is the contract between the retrieval and its
// background process: Jscan for AND restrictions, Uscan for OR-covered
// restrictions. The background produces either a complete RID list for
// the final stage or a Tscan recommendation, optionally feeding a
// borrow queue for the fast-first foreground.
type backgroundScan interface {
	stepper
	// bgComplete returns the completed RID list (nil when none).
	bgComplete() *rid.Container
	// bgNames lists the indexes that produced the list.
	bgNames() []string
	// bgRecommendTscan reports that sequential retrieval is optimal.
	bgRecommendTscan() bool
	// bgKill abandons the background, releasing its containers.
	bgKill()
	// closeBorrow stops feeding the borrow queue.
	closeBorrow()
	// borrowStreamComplete reports whether the borrow queue received
	// every candidate RID.
	borrowStreamComplete() bool
}

func (t tacticKind) String() string {
	switch t {
	case tacticTscan:
		return "tscan"
	case tacticSscan:
		return "sscan"
	case tacticFscan:
		return "fscan"
	case tacticBackgroundOnly:
		return "background-only"
	case tacticFastFirst:
		return "fast-first"
	case tacticSorted:
		return "sorted"
	case tacticIndexOnly:
		return "index-only"
	default:
		return "?"
	}
}

// retrieval is the single-table retrieval subsystem of Figure 4: a
// foreground process delivering records immediately, a background
// process running Jscan, and a final stage executed upon background
// completion as the alternative to foreground delivery. It implements
// Rows; each Next() advances the processes cooperatively (one
// foreground and one background step per round — the paper's equal
// proportional speeds) until a row is available.
type retrieval struct {
	q      *Query
	k      *rowKernel // q's row kernel, shared by every scan of the retrieval
	cfg    Config
	tactic tacticKind
	model  estimate.CostModel
	st     RetrievalStats
	// ec is the per-query execution context (nil = free). Its governor
	// rides inside every scan's tracker, so cancellation surfaces as
	// errors from the buffer pool; Next additionally checks it between
	// rounds so a cancelled query stops even while popping queued rows.
	ec *ExecCtx
	// trc stamps and fans out this retrieval's trace events; metrics is
	// the optimizer's shared registry.
	trc     *tracer
	metrics *Metrics
	// fb, when non-nil, receives this retrieval's estimated-vs-actual
	// observations on completion (the feedback loop).
	fb *feedback.Registry
	// pinned marks a pinned-plan replay (RunPlan): it wins its tactic's
	// metric but feeds neither the estimate-error histogram nor the
	// feedback registry — a replay's "estimate" is the plan itself, and
	// folding it back in would only reinforce it.
	pinned bool

	out *rowQueue

	fg  stepper        // may be nil
	bg  backgroundScan // may be nil
	fin *finalStage

	// fgEstTotal is the projected total cost of the foreground scan,
	// used by the index-only competition decision.
	fgEstTotal float64

	// retired holds replaced foreground steppers so their I/O stays in
	// the accounting.
	retired []stepper

	fgDone       bool
	fgTerminated bool
	bgDone       bool
	// bgStopped marks a background that was abandoned by the tactic
	// (as opposed to completing); a stopped background has no result.
	bgStopped  bool
	finDone    bool
	closed     bool
	released   bool
	statsFinal bool
	err        error
}

// release frees every stage's held resources (cursor pins, spilled
// containers), live and retired. Idempotent.
func (r *retrieval) release() {
	if r.released {
		return
	}
	r.released = true
	for _, s := range r.steppers() {
		s.release()
	}
}

// fail latches err as the retrieval's terminal error and unwinds: for an
// execution-context cancellation it emits the scan-abandoned events for
// still-live stages plus one query-cancelled event and records the
// cancellation metric (once per ExecCtx); for any error it releases all
// held resources and finalizes the stats. Returns err for convenience.
func (r *retrieval) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	if IsCancellation(err) {
		if r.fg != nil && !r.fgDone && !r.fgTerminated {
			r.trc.emit(TraceEvent{
				Kind: EvScanAbandoned, Tactic: r.tactic.String(), Scan: r.fg.name(),
				ActualIO: r.fg.cost(), Detail: "unwound by execution context",
			})
		}
		if r.bg != nil && !r.bgDone {
			r.trc.emit(TraceEvent{
				Kind: EvScanAbandoned, Tactic: r.tactic.String(), Scan: r.bg.name(),
				Indexes: r.bg.bgNames(), ActualIO: r.bg.cost(), Detail: "unwound by execution context",
			})
		}
		if r.fin != nil && !r.finDone {
			r.trc.emit(TraceEvent{
				Kind: EvScanAbandoned, Tactic: r.tactic.String(), Scan: r.fin.name(),
				ActualIO: r.fin.cost(), Detail: "unwound by execution context",
			})
		}
		var io float64
		for _, s := range r.steppers() {
			io += s.cost()
		}
		r.trc.emit(TraceEvent{
			Kind: EvQueryCancelled, Tactic: r.tactic.String(), ActualIO: io,
			Detail: err.Error(),
		})
		if r.ec.markCancelRecorded() {
			r.metrics.recordCancellation(err)
		}
	}
	r.closed = true
	r.release()
	r.finalizeStats()
	return err
}

// replaceFg swaps the foreground stepper, retiring the old one.
func (r *retrieval) replaceFg(s stepper) {
	if r.fg != nil {
		r.retired = append(r.retired, r.fg)
	}
	r.fg = s
	r.fgDone = false
	r.fgTerminated = false
}

// sequentialScan builds the retrieval's Tscan — the no-index arrangement
// or a mid-flight switch to sequential retrieval — at the width the
// policy picks for the table's scan cost.
func (r *retrieval) sequentialScan() *tscan {
	return newTscan(r.ec, r.q, r.k, r.out, tscanWidth(r.cfg, r.trc, r.q, r.model.TscanCost()))
}

func (r *retrieval) Stats() RetrievalStats {
	st := r.st
	st.Tactic = r.tactic.String()
	return st
}

func (r *retrieval) Close() error {
	r.closed = true
	r.release()
	r.finalizeStats()
	return nil
}

func (r *retrieval) Next() (expr.Row, bool, error) {
	if r.err != nil {
		return nil, false, r.err
	}
	if err := r.ec.Err(); err != nil {
		// The context tripped between calls (or before the first):
		// unwind before doing any work.
		return nil, false, r.fail(err)
	}
	for {
		if r.closed {
			r.release()
			r.finalizeStats()
			return nil, false, nil
		}
		if !r.out.empty() {
			row := r.out.pop()
			r.st.RowsDelivered++
			if r.fin == nil && !r.fgTerminated {
				r.st.FgRows++
			}
			if r.q.Limit > 0 && r.st.RowsDelivered >= r.q.Limit {
				// Forceful early termination: the fast-first payoff.
				r.closed = true
			}
			return row, true, nil
		}
		done, err := r.advance()
		if err != nil {
			return nil, false, r.fail(err)
		}
		if done && r.out.empty() {
			r.closed = true
			r.release()
			r.finalizeStats()
			return nil, false, nil
		}
	}
}

// advance runs one cooperative round. It returns true when every stage
// has finished.
func (r *retrieval) advance() (bool, error) {
	// Final stage, once entered, runs alone.
	if r.fin != nil {
		if r.finDone {
			return true, nil
		}
		done, err := r.fin.step()
		if err != nil {
			return false, err
		}
		if r.finDone = done; done && r.fin.par != nil {
			r.trc.emit(TraceEvent{
				Kind: EvScanComplete, Tactic: r.tactic.String(), Scan: r.fin.name(),
				ActualIO: r.fin.cost(), Detail: "final stage complete" + r.fin.par.String(),
			})
		}
		return done, nil
	}
	// Foreground slice.
	if r.fg != nil && !r.fgDone && !r.fgTerminated {
		done, err := r.fg.step()
		if err != nil {
			return false, err
		}
		if done {
			r.fgDone = true
			if err := r.onFgDone(); err != nil {
				return false, err
			}
		}
	}
	// Background slice.
	if r.bg != nil && !r.bgDone {
		done, err := r.bg.step()
		if err != nil {
			return false, err
		}
		if done {
			r.bgDone = true
			if err := r.onBgDone(); err != nil {
				return false, err
			}
		}
	}
	// Tactic-specific competition control between rounds.
	if err := r.control(); err != nil {
		return false, err
	}
	if r.fin != nil {
		return r.finDone, nil
	}
	fgOver := r.fg == nil || r.fgDone || r.fgTerminated
	bgOver := r.bg == nil || r.bgDone
	return fgOver && bgOver, nil
}

// onFgDone handles foreground completion.
func (r *retrieval) onFgDone() error {
	detail := "foreground complete"
	if ts, ok := r.fg.(*tscan); ok && ts.par != nil {
		detail += ts.par.String()
	}
	r.trc.emit(TraceEvent{
		Kind: EvScanComplete, Tactic: r.tactic.String(), Scan: r.fg.name(),
		ActualIO: r.fg.cost(), Detail: detail,
	})
	switch r.tactic {
	case tacticFastFirst:
		// The borrow stream ended. If the background's first scan
		// completed (rather than being abandoned), the foreground saw
		// every candidate RID and the retrieval is complete; kill the
		// background. Otherwise the background must finish the job.
		if r.bg != nil && !r.bgDone && r.bg.borrowStreamComplete() {
			r.stopBackground("foreground delivered everything")
		}
	case tacticSorted, tacticIndexOnly:
		// Quick foreground completion eliminates the background
		// overhead entirely.
		if r.bg != nil && !r.bgDone {
			r.stopBackground("foreground finished first")
		}
	}
	return nil
}

// onBgDone handles background (Jscan) completion.
func (r *retrieval) onBgDone() error {
	r.st.WinningOrder = append([]string(nil), r.bg.bgNames()...)
	if c := r.bg.bgComplete(); c != nil {
		r.st.FinalListLen = c.Len()
	} else {
		r.st.FinalListLen = -1
	}
	switch r.tactic {
	case tacticBackgroundOnly:
		if r.bg.bgRecommendTscan() {
			// Strategy switch: Jscan proved sequential retrieval
			// optimal.
			r.trc.emit(TraceEvent{
				Kind: EvStrategySwitch, Tactic: r.tactic.String(), Scan: "Tscan",
				Indexes: r.bg.bgNames(), EstimatedIO: r.model.TscanCost(), ActualIO: r.bg.cost(),
				Detail: "background recommends Tscan, switching",
			})
			r.replaceFg(r.sequentialScan())
			return nil
		}
		return r.enterFinal(nil)
	case tacticFastFirst:
		if r.fgDone || r.fgTerminated {
			return r.bgResolveFastFirst()
		}
		// Foreground still draining borrowed RIDs; resolve in control.
		return nil
	case tacticSorted:
		// Deliver the filter to the running Fscan.
		if c := r.bg.bgComplete(); c != nil {
			f := c.Filter()
			if fs, ok := r.fg.(*fscan); ok && !r.fgDone {
				fs.filter = f.MayContain
				r.trc.emit(TraceEvent{
					Kind: EvFilterInstalled, Tactic: r.tactic.String(), Scan: r.fg.name(),
					Indexes: r.bg.bgNames(), Detail: fmt.Sprintf("Jscan filter (%d rids) installed", c.Len()),
				})
			}
		}
		return nil
	case tacticIndexOnly:
		return r.bgResolveIndexOnly()
	}
	return nil
}

// bgResolveFastFirst finishes a fast-first retrieval whose foreground
// has stopped: the final stage delivers the remainder, filtering out
// already-delivered records; if Jscan recommended Tscan, a Tscan with
// the same exclusion runs instead.
func (r *retrieval) bgResolveFastFirst() error {
	delivered := r.fgDeliveredRIDs()
	if r.bg.bgRecommendTscan() {
		r.trc.emit(TraceEvent{
			Kind: EvStrategySwitch, Tactic: r.tactic.String(), Scan: "Tscan",
			EstimatedIO: r.model.TscanCost(), ActualIO: r.bg.cost(),
			Detail: "background recommends Tscan for the remainder",
		})
		ts := r.sequentialScan()
		if len(delivered) > 0 {
			ts.exclude = rid.FromRIDs(delivered)
		}
		r.replaceFg(ts)
		return nil
	}
	return r.enterFinal(delivered)
}

// bgResolveIndexOnly applies the index-only rule: a completed Jscan
// with a small enough RID list abandons the Sscan in favor of the
// "sure" final-stage retrieval; otherwise the Sscan continues alone.
func (r *retrieval) bgResolveIndexOnly() error {
	if r.fgDone {
		return nil
	}
	if r.bg.bgRecommendTscan() || r.bg.bgComplete() == nil {
		r.trc.emit(TraceEvent{
			Kind: EvRaceResolved, Tactic: r.tactic.String(), Scan: r.fg.name(),
			Detail: "background produced nothing, Sscan continues",
		})
		return nil
	}
	finCost := r.model.JscanFinalCost(float64(r.bg.bgComplete().Len()))
	remaining := r.fgEstTotal - r.fg.cost()
	if remaining < 0 {
		remaining = 0
	}
	if finCost < remaining {
		r.trc.emit(TraceEvent{
			Kind: EvRaceResolved, Tactic: r.tactic.String(), Scan: "Fin", Indexes: r.bg.bgNames(),
			EstimatedIO: finCost, ActualIO: r.fg.cost(),
			Detail: fmt.Sprintf("final stage (%.0f) beats remaining Sscan (%.0f)", finCost, remaining),
		})
		r.trc.emit(TraceEvent{
			Kind: EvScanAbandoned, Tactic: r.tactic.String(), Scan: r.fg.name(),
			ActualIO: r.fg.cost(), Detail: "abandoning Sscan in favor of the sure final stage",
		})
		r.fgTerminated = true
		return r.enterFinal(r.fgDeliveredRIDs())
	}
	r.trc.emit(TraceEvent{
		Kind: EvRaceResolved, Tactic: r.tactic.String(), Scan: r.fg.name(),
		EstimatedIO: finCost, ActualIO: r.fg.cost(),
		Detail: fmt.Sprintf("Sscan remainder (%.0f) beats final stage (%.0f); Sscan continues", remaining, finCost),
	})
	return nil
}

// control applies per-round competition rules that are not triggered by
// stage completion.
func (r *retrieval) control() error {
	switch r.tactic {
	case tacticFastFirst:
		bf, ok := r.fg.(*borrowFetcher)
		if !ok {
			return nil
		}
		if bf.overflow && !r.fgTerminated {
			// Section 7: upon buffer overflow the foreground run is
			// terminated and the buffer passes to the final stage.
			r.trc.emit(TraceEvent{
				Kind: EvBorrowOverflow, Tactic: r.tactic.String(), Scan: bf.name(),
				ActualIO: bf.cost(),
				Detail:   fmt.Sprintf("foreground buffer overflow (%d delivered), switching to background tactic", len(bf.delivered)),
			})
			r.fgTerminated = true
			r.fgDone = true
			if r.bg != nil {
				r.bg.closeBorrow()
			}
			if r.bgDone {
				return r.bgResolveFastFirst()
			}
			return nil
		}
		if r.fgDone && r.bgDone && !r.bgStopped && r.fin == nil {
			return r.bgResolveFastFirst()
		}
	case tacticIndexOnly:
		// Section 7: upon foreground buffer overflow, Jscan terminates
		// and Sscan continues (the safer strategy).
		if ss, ok := r.fg.(*sscan); ok && r.bg != nil && !r.bgDone &&
			r.cfg.FgBufferCap > 0 && len(ss.delivered) >= r.cfg.FgBufferCap {
			r.trc.emit(TraceEvent{
				Kind: EvBorrowOverflow, Tactic: r.tactic.String(), Scan: r.fg.name(),
				ActualIO: r.fg.cost(),
				Detail:   fmt.Sprintf("delivered-RID buffer overflow (%d rids); Sscan is safer", len(ss.delivered)),
			})
			r.stopBackground("foreground buffer overflow; Sscan is safer")
		}
	}
	return nil
}

// enterFinal switches the retrieval into its final stage.
func (r *retrieval) enterFinal(delivered []storage.RID) error {
	fin, err := newFinalStage(r.ec, r.q, r.k, r.bg.bgComplete(), delivered, r.out)
	if err != nil {
		return err
	}
	if r.q.Limit == 0 {
		// Only the uncapped final stage partitions; its appraised cost
		// is the fetch of the completed RID list.
		fin.workers = decideWidth(r.cfg, r.trc, "Fin", r.model.JscanFinalCost(float64(r.bg.bgComplete().Len())))
	}
	r.fin = fin
	r.trc.emit(TraceEvent{
		Kind: EvFinalStage, Tactic: r.tactic.String(), Scan: "Fin", Indexes: r.bg.bgNames(),
		Detail: fmt.Sprintf("final stage over %d rids (excluding %d delivered)", len(fin.c.rids), len(delivered)),
	})
	return nil
}

// stopBackground abandons the background process.
func (r *retrieval) stopBackground(why string) {
	r.trc.emit(TraceEvent{
		Kind: EvScanAbandoned, Tactic: r.tactic.String(), Scan: r.bg.name(),
		Indexes: r.bg.bgNames(), ActualIO: r.bg.cost(), Detail: "stopping background: " + why,
	})
	r.bg.bgKill()
	r.bgDone = true
	r.bgStopped = true
}

// fgDeliveredRIDs returns the foreground's delivered-RID buffer.
func (r *retrieval) fgDeliveredRIDs() []storage.RID {
	switch fg := r.fg.(type) {
	case *borrowFetcher:
		return fg.delivered
	case *sscan:
		return fg.delivered
	default:
		return nil
	}
}

// steppers returns every stage, live or retired, for cost accounting.
func (r *retrieval) steppers() []stepper {
	out := append([]stepper(nil), r.retired...)
	if r.fg != nil {
		out = append(out, r.fg)
	}
	if r.bg != nil {
		out = append(out, r.bg)
	}
	if r.fin != nil {
		out = append(out, r.fin)
	}
	return out
}

// finalizeStats assembles the strategy description and I/O totals.
func (r *retrieval) finalizeStats() {
	if r.statsFinal {
		return
	}
	r.statsFinal = true
	var parts []string
	var io storage.IOStats
	for _, s := range r.retired {
		parts = append(parts, s.name())
	}
	if r.fg != nil {
		parts = append(parts, r.fg.name())
	}
	if r.bg != nil {
		parts = append(parts, r.bg.name()+"["+strings.Join(r.bg.bgNames(), ",")+"]")
	}
	if r.fin != nil {
		parts = append(parts, "Fin")
	}
	for _, s := range r.steppers() {
		io = io.Add(s.io())
	}
	r.st.IO = io
	r.st.Strategy = strings.Join(parts, "+")
	// A cancelled retrieval is not a tactic win, and its truncated I/O
	// would pollute the estimate-error histogram; it is counted by the
	// cancellation counters instead. Nor is a join's table access.
	if !(r.err != nil && IsCancellation(r.err)) && r.q.join == nil {
		r.metrics.recordRetrieval(r.tactic, &r.st, !r.pinned)
	}
	if r.fb != nil && r.err == nil && !r.pinned {
		r.observeFeedback()
	}
}

// observeFeedback folds this retrieval's estimated-vs-actual
// cardinality into the feedback registry. Pure arithmetic over
// already-recorded stats — no I/O, no locks beyond the registry's own.
// A completed single-index background list is an exact ground truth for
// that index's estimate. Multi-index lists measure the intersection,
// not any one index, so they are not attributed.
func (r *retrieval) observeFeedback() {
	if r.st.FinalListLen < 0 || len(r.st.WinningOrder) != 1 {
		return
	}
	win := r.st.WinningOrder[0]
	for _, es := range r.st.Estimates {
		if es.Index == win {
			if !es.Exact {
				r.fb.ObserveCardinality(r.q.Table.Name, win, es.RIDs, float64(r.st.FinalListLen))
			}
			return
		}
	}
}
