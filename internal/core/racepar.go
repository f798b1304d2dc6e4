package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Goroutine race legs (Config.Parallelism > 1).
//
// The paper's race — two adjacent indexes whose estimates are too close
// to call, scanned "simultaneously" — runs by default as interleaved
// half-steps on the cooperative scheduler. With a worker budget the two
// legs instead run on real goroutines to resolution inside a single
// step() call: each leg owns its cursor, batch scratch, and tracker
// (created in openLeg), the first leg to exhaust its range claims the
// win with a compare-and-swap, and the loser observes the win at its
// next batch boundary and parks with its cursor open so the standard
// continueLoser path can refilter and resume it. Leg trackers merge
// into the jscan meter at the barrier, so per-query attributed I/O is
// exact; only the point at which the losing leg stops — and hence the
// race's total cost — depends on scheduling, which is the paper's own
// characterization of a race (the winner is a runtime outcome, not a
// plan property).
//
// Competition can still kill a leg mid-race: each leg re-projects its
// final-stage cost every stepEntries entries against the guaranteed
// best (frozen for the duration of the race; the shared filter and
// model are read-only) using its own tracker's exact charges — the
// interleaved path has to approximate per-leg cost as half the shared
// meter's delta, so the goroutine race is *more* faithful to the
// paper's per-scan accounting, not less. A killed leg closes its own
// cursor, buffers its abandonment event, and lets the sibling race on.
// Events are emitted by the coordinator after the barrier in leg order,
// keeping TraceEvent sequence numbers single-writer.
func (j *jscan) runRaceParallel() error {
	r := j.race
	memBudget := j.cfg.RID.MemBudget

	var (
		stopWin atomic.Int32 // 1+legIndex of the first leg to finish
		stopMem atomic.Bool  // a leg hit the in-memory RID budget
		stopErr atomic.Bool
		errs    [2]error
		events  [2][]TraceEvent
		wg      sync.WaitGroup
	)
	raceOver := func() bool {
		return stopErr.Load() || stopMem.Load() || stopWin.Load() != 0
	}

	legs := [2]*raceLeg{&r.a, &r.b}
	for li, leg := range legs {
		if leg.done || leg.dead {
			continue
		}
		wg.Add(1)
		go func(li int, leg *raceLeg) {
			defer wg.Done()
			sc := newAcceptScratch(stepEntries)
			lastCheck := 0
			for !raceOver() {
				n, kept, err := leg.pull(leg.cur, stepEntries, j.filter, sc)
				if err != nil {
					errs[li] = err
					stopErr.Store(true)
					return
				}
				if n == 0 {
					leg.done = true
					stopWin.CompareAndSwap(0, int32(li+1))
					return
				}
				leg.rids = append(leg.rids, kept...)
				if memBudget > 0 && len(leg.rids) >= memBudget {
					stopMem.Store(true)
					return
				}
				if leg.seen-lastCheck >= stepEntries {
					lastCheck = leg.seen
					// The leg's own tracker gives its exact scan cost —
					// no half-split approximation needed.
					if projFinal, abandon := abandonProjected(&j.cfg, j.model, len(leg.rids), leg.seen, leg.rangeEst, float64(leg.tr.IOCost()), j.currentGuaranteedBest()); abandon {
						leg.dead = true
						leg.cur.Close()
						events[li] = append(events[li], TraceEvent{
							Kind: EvScanAbandoned, Scan: j.name(), Indexes: []string{leg.ix.Name},
							EstimatedIO: projFinal,
							Detail:      fmt.Sprintf("race leg abandoned (proj final %.0f)", projFinal),
						})
						return
					}
				}
			}
		}(li, leg)
	}
	wg.Wait()

	// Merge both legs' charges before anything can error out: attributed
	// I/O stays exact even for a query unwound mid-race.
	for _, leg := range legs {
		if leg.tr != nil {
			j.tr.Merge(leg.tr)
		}
	}
	for li := range events {
		for _, ev := range events[li] {
			ev.ActualIO = j.cost()
			j.trc.emit(ev)
		}
	}
	if stopErr.Load() {
		// j.race stays set: bgKill owns the cursor cleanup for legs that
		// were not killed by competition.
		if errs[0] != nil {
			return errs[0]
		}
		return errs[1]
	}

	if w := stopWin.Load(); w != 0 {
		return j.resolveRace(legs[w-1])
	}
	return j.resolveRace(nil)
}
