package core

import "fmt"

// Adaptive parallelism policy: worker width as a per-scan optimizer
// decision, the paper's run-time-decision discipline applied to the
// Config.Parallelism ceiling. It decides for the two scans that
// partition, Tscan and Fin. At the moment one is about to partition,
// the policy knows what a compile-time knob cannot: the scan's
// appraised I/O (feedback-corrected, per Section 5). Weighing it against
// the fixed per-worker startup/hand-over overhead, it picks the width
// minimizing the expected critical path:
//
//	cost(k) = estIO/k + startup·(k-1)
//
// — the scan's share per worker under an even split, plus the cost to
// launch k-1 extra workers and merge what they post. The minimizer is
// k* ≈ sqrt(estIO/startup), so small scans (estIO <= 2·startup) never
// leave width 1 and huge scans grow as the square root of their size up
// to the ceiling.
//
// The policy only runs under Config.AdaptiveParallelism; otherwise a
// Tscan or Fin keeps the static effectiveWorkers() width.

// parallelStartupCost is the per-worker startup/hand-over overhead, in
// simulated page accesses, charged against a candidate width (k workers
// must save more than (k-1)·cost off the critical path to win). Two
// pages per worker is on the order of one sequential step, the size of
// a worker's first morsel.
const parallelStartupCost = 2.0

// planParallelWidth picks the worker width in [1, max] minimizing the
// expected critical-path cost estIO/k + startup·(k-1). Ties resolve to
// the smaller width, so a zero or unknown estimate stays sequential.
func planParallelWidth(estIO float64, max int) int {
	max = min(max, maxParallelism)
	best, bestCost := 1, estIO
	for k := 2; k <= max; k++ {
		c := estIO/float64(k) + parallelStartupCost*float64(k-1)
		if c < bestCost {
			best, bestCost = k, c
		}
	}
	return best
}

// tscanWidth resolves a sequential-retrieval (Tscan) width. A
// Limit-capped retrieval's Tscan never partitions — rows must stop at
// the cap — so it is width 1 and the policy is consulted only for a
// Tscan without a Limit.
func tscanWidth(cfg Config, trc *tracer, q *Query, estIO float64) int {
	if q.Limit != 0 {
		return 1
	}
	return decideWidth(cfg, trc, "Tscan", estIO)
}

// decideWidth resolves a scan's worker width. Without adaptive mode it
// is exactly the static knob (effectiveWorkers); with it, the policy
// picks a width from the scan's appraised I/O and the ceiling, counts
// the decision in the width metrics, and hands a sink one
// EvParallelWidthChosen so EXPLAIN ANALYZE shows the width and why. The
// decision is taken only when the ceiling allows fan-out (>= 2): a
// width-1 budget has no decision to record.
func decideWidth(cfg Config, trc *tracer, scan string, estIO float64) int {
	max := cfg.effectiveWorkers()
	if !cfg.AdaptiveParallelism || max < 2 {
		return max
	}
	w := planParallelWidth(estIO, max)
	trc.metrics.recordWidth(w)
	if trc.decide(EvParallelWidthChosen) {
		trc.emit(TraceEvent{Kind: EvParallelWidthChosen, Scan: scan, Width: w, EstimatedIO: estIO,
			Detail: fmt.Sprintf("ceiling %d, startup %.1f/worker", max, parallelStartupCost)})
	}
	return w
}
