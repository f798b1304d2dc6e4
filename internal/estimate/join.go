package estimate

import (
	"bytes"
	"math"

	"rdbdyn/internal/catalog"
)

// DefaultJoinDistinctFraction is the fallback distinct-value ratio for
// a join column with no index to sample: the classic 10% guess, the
// same magic number the static System R baseline uses for equality
// selectivity.
const DefaultJoinDistinctFraction = 0.1

// JoinCPURowsPerIO converts join CPU work into the simulated-I/O
// currency: this many row visits (hash insertions, probe comparisons,
// sort comparisons) cost as much as one page access. The calibration is
// deliberately CPU-respecting — coarse enough that heap-sized I/O still
// dominates small queries, fine enough that a nested loop's quadratic
// comparison count and a materialized sort's n·log n both register at
// bench scales. Only join planning uses the conversion; single-table
// retrievals and every paper experiment remain pure-I/O.
const JoinCPURowsPerIO = 64

// JoinCPUCost prices rows row visits in the simulated-I/O currency.
func JoinCPUCost(rows float64) float64 {
	if rows <= 0 {
		return 0
	}
	return rows / JoinCPURowsPerIO
}

// JoinSortCost prices the final materialized sort of a join's output —
// n·log2(n) comparisons in the shared CPU currency. This is the bar an
// order-preserving plan must beat: it wins whenever its extra I/O stays
// within the avoided sort's cost.
func JoinSortCost(rows float64) float64 {
	if rows < 2 {
		return 0
	}
	return JoinCPUCost(rows * math.Log2(rows))
}

// distinctSampleRanks is how many evenly-ranked entries DistinctEstimate
// reads. Deterministic (no randomness), so twin databases produce
// identical estimates.
const distinctSampleRanks = 16

// DistinctEstimate estimates the number of distinct leading-column
// values in an index by reading a few evenly-ranked entries: if evenly
// spaced probes already collide, duplication is heavy and the distinct
// count scales down proportionally. The probes are planning arithmetic
// (untracked), like partition planning.
func DistinctEstimate(ix *catalog.Index) float64 {
	n := ix.Tree.Len()
	if n <= 1 {
		return float64(n)
	}
	k := int64(distinctSampleRanks)
	if k > n {
		k = n
	}
	var prev []byte
	distinct := 0
	for i := int64(0); i < k; i++ {
		rank := i * (n - 1) / (k - 1)
		key, _, err := ix.Tree.EntryAt(rank)
		if err != nil {
			return float64(n) * DefaultJoinDistinctFraction
		}
		if prev == nil || !bytes.Equal(key, prev) {
			distinct++
		}
		prev = key
	}
	d := float64(n) * float64(distinct) / float64(k)
	if d < 1 {
		d = 1
	}
	return d
}

// JoinTable is the estimator's view of one FROM table for join
// ordering: a corrected filtered-cardinality estimate plus per-column
// distinct estimates for the columns it joins on.
type JoinTable struct {
	Name string
	// Card is the estimated cardinality after the table's local
	// restriction (feedback-corrected when inexact).
	Card float64
	// Rows is the table's total live row count.
	Rows float64
	// Pages is the heap page count (the table's Tscan cost).
	Pages float64
	// Distinct maps a join column position to its estimated distinct
	// value count (missing columns fall back to
	// DefaultJoinDistinctFraction of Rows).
	Distinct map[int]float64
}

// distinctOn returns the distinct estimate for a join column.
func (t JoinTable) distinctOn(col int) float64 {
	if d, ok := t.Distinct[col]; ok && d >= 1 {
		return d
	}
	d := t.Rows * DefaultJoinDistinctFraction
	if d < 1 {
		d = 1
	}
	return d
}

// JoinEdge is one equi-join predicate tables[T1].C1 = tables[T2].C2
// (table indices into the JoinTable slice, table-local columns).
type JoinEdge struct{ T1, C1, T2, C2 int }

// JoinStageEst is one step of a greedy join order: the table joined in
// at this stage and the estimated intermediate cardinality afterwards.
type JoinStageEst struct {
	Table   int
	OutRows float64
}

// stageOut estimates the output of joining table t (with filtered
// cardinality card) into an intermediate of cur rows: the textbook
// cur·card/d with d the largest distinct count among the connecting
// join columns, or a cross product when no edge connects.
func stageOut(tables []JoinTable, edges []JoinEdge, inSet func(int) bool, t int, cur float64) (out float64, connected bool) {
	d := 0.0
	for _, e := range edges {
		switch {
		case e.T1 == t && inSet(e.T2):
			if dd := tables[t].distinctOn(e.C1); dd > d {
				d = dd
			}
		case e.T2 == t && inSet(e.T1):
			if dd := tables[t].distinctOn(e.C2); dd > d {
				d = dd
			}
		}
	}
	if d == 0 {
		return cur * tables[t].Card, false
	}
	out = cur * tables[t].Card / d
	if out < 1 {
		out = 1
	}
	return out, true
}

// GreedyJoinRest orders the tables not yet joined (chosen lists those
// already in the intermediate, whose current cardinality is curRows):
// at each step it adds the table minimizing the estimated stage output,
// preferring tables connected by a join edge over cross products. This
// is also the mid-flight re-optimization entry: after a stage's actual
// cardinality diverges, the executor re-orders the remaining tables
// from the observed curRows.
func GreedyJoinRest(tables []JoinTable, edges []JoinEdge, chosen []int, curRows float64) []JoinStageEst {
	in := make([]bool, len(tables))
	for _, t := range chosen {
		in[t] = true
	}
	inSet := func(t int) bool { return in[t] }
	var out []JoinStageEst
	for {
		best, bestOut, bestConn := -1, 0.0, false
		for t := range tables {
			if in[t] {
				continue
			}
			o, conn := stageOut(tables, edges, inSet, t, curRows)
			if best == -1 || (conn && !bestConn) || (conn == bestConn && o < bestOut) {
				best, bestOut, bestConn = t, o, conn
			}
		}
		if best == -1 {
			return out
		}
		in[best] = true
		curRows = bestOut
		out = append(out, JoinStageEst{Table: best, OutRows: bestOut})
	}
}
