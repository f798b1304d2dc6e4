package core

import "fmt"

// Adaptive parallelism policy: worker width as a per-scan optimizer
// decision, the paper's run-time-decision discipline applied to the
// Config.Parallelism ceiling. At the moment a scan is about to
// partition, the policy knows what a compile-time knob cannot: the
// scan's appraised I/O (feedback-corrected, per Section 5), the fixed
// per-worker startup/hand-over overhead, and the engine's live load.
// From those it picks the width minimizing the expected critical path:
//
//	cost(k) = estIO/k + startup·(k-1)
//
// — the scan's share per worker under an even split, plus the cost to
// launch k-1 extra workers and merge what they post. The minimizer is
// k* ≈ sqrt(estIO/startup), so small scans (estIO <= 2·startup) never
// leave width 1 and huge scans grow as the square root of their size up
// to the ceiling. Live load shrinks the ceiling proportionally: a
// saturated engine keeps every query sequential rather than multiplying
// goroutines under contention.
//
// The policy only runs under Config.AdaptiveParallelism; otherwise
// every scan keeps the static effectiveWorkers() width.

// parallelStartupCost is the per-worker startup/hand-over overhead, in
// simulated page accesses, charged against a candidate width (k workers
// must save more than (k-1)·cost off the critical path to win). Two
// pages per worker matches the observed fixed cost of a partitioned
// leg: one charged leaf-seek to open the partition plus roughly one
// access of merge slack.
const parallelStartupCost = 2.0

// planParallelWidth picks the worker width in [1, max] minimizing the
// expected critical-path cost estIO/k + startup·(k-1), after shrinking
// the ceiling by the live load fraction (0 = idle, 1 = saturated).
// Ties resolve to the smaller width, so a zero or unknown estimate
// stays sequential.
func planParallelWidth(estIO float64, max int, load float64) int {
	if max > maxParallelism {
		max = maxParallelism
	}
	// A saturated engine cedes its extra workers: the ceiling drops
	// proportionally to the load, to 1 at full saturation.
	if load > 0 {
		if load > 1 {
			load = 1
		}
		max = int(float64(max) * (1 - load))
	}
	if max < 1 {
		max = 1
	}
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
// the cap — so it is width 1 and the policy is consulted only for the
// partitionable shape.
func tscanWidth(cfg Config, ec *ExecCtx, trc *tracer, q *Query, estIO float64) int {
	if q.Limit != 0 {
		return 1
	}
	return decideWidth(cfg, ec, trc, "Tscan", estIO)
}

// decideWidth resolves a scan's worker width. Without adaptive mode it
// is exactly the static knob (effectiveWorkers); with it, the policy
// picks a width from the scan's appraised I/O and the engine's live
// load, and emits one EvParallelWidthChosen per decision so EXPLAIN
// ANALYZE shows the width and why. The event fires only when the
// ceiling allows fan-out (>= 2): a width-1 budget has no decision to
// record.
func decideWidth(cfg Config, ec *ExecCtx, trc *tracer, scan string, estIO float64) int {
	max := cfg.effectiveWorkers()
	if !cfg.AdaptiveParallelism || max < 2 {
		return max
	}
	load := ec.Load()
	w := planParallelWidth(estIO, max, load)
	trc.emit(TraceEvent{
		Kind:        EvParallelWidthChosen,
		Scan:        scan,
		Width:       w,
		EstimatedIO: estIO,
		Detail:      fmt.Sprintf("ceiling %d, load %.2f, startup %.1f/worker", max, load, parallelStartupCost),
	})
	return w
}
