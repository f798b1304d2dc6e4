package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rdbdyn/internal/expr"
)

// refSortRows is the order sortRows must deliver, stated directly: a
// stable sort under expr.Compare on the by columns in turn, with desc
// negating only the comparison (never reversing the arrival order).
func refSortRows(rows []expr.Row, by []int, desc bool) {
	slices.SortStableFunc(rows, func(a, b expr.Row) int {
		for _, c := range by {
			if d := expr.Compare(a[c], b[c]); d != 0 {
				if desc {
					return -d
				}
				return d
			}
		}
		return 0
	})
}

// TestSortRowsMatchesReference holds sortRows to refSortRows on rows
// (key, second key, arrival id), comparing the delivered row ids, so a
// reordering of equal keys fails as surely as a misplaced key: every
// size class the radix passes care about, INT keys across the whole
// range with duplicates and NULLs, a second ORDER BY column (INT with
// NULLs, or STRING), both directions, and mixed key types.
func TestSortRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	// Leading keys: the INT ones (NULLs allowed) take the radix path,
	// mixed takes the comparison sort.
	gens := []struct {
		name string
		key  func() expr.Value
	}{
		{"int-dup", func() expr.Value { // heavy duplication, both signs, the extremes
			return expr.Int([]int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -1, 0, 1, 255, 256, 1 << 40, math.MaxInt64}[rng.Intn(10)])
		}},
		{"int-wide", func() expr.Value { return expr.Int(int64(rng.Uint64())) }},
		{"int-narrow", func() expr.Value { return expr.Int(1000 + rng.Int63n(300)) }},
		{"int-null", func() expr.Value {
			if rng.Intn(5) == 0 {
				return expr.Null()
			}
			return expr.Int(rng.Int63n(7) - 3)
		}},
		{"null", func() expr.Value { return expr.Null() }},
		{"mixed", func() expr.Value {
			switch rng.Intn(4) {
			case 0:
				return expr.Int(rng.Int63n(5) - 2)
			case 1:
				return expr.Float(float64(rng.Intn(9))/2 - 2)
			case 2:
				return expr.Str(fmt.Sprint(rng.Intn(3)))
			default:
				return expr.Null()
			}
		}},
	}
	seconds := []func() expr.Value{
		func() expr.Value {
			if rng.Intn(4) == 0 {
				return expr.Null()
			}
			return expr.Int(rng.Int63n(3))
		},
		func() expr.Value { return expr.Str(string(rune('a' + rng.Intn(3)))) },
	}
	for _, n := range []int{0, 1, 2, 7, 63, 65, 255, 257, 1023, 1025, 5000} {
		for _, g := range gens {
			for si, second := range seconds {
				arrival := make([]expr.Row, n)
				for i := range arrival {
					arrival[i] = expr.Row{g.key(), second(), expr.Int(int64(i))}
				}
				for _, by := range [][]int{{0}, {0, 1}} {
					for _, desc := range []bool{false, true} {
						got, want := slices.Clone(arrival), slices.Clone(arrival)
						sortRows(got, by, desc)
						refSortRows(want, by, desc)
						for i := range want {
							if got[i][2].I != want[i][2].I {
								t.Fatalf("n=%d %s second=%d by=%v desc=%v: position %d holds row %d %v, want row %d %v",
									n, g.name, si, by, desc, i, got[i][2].I, got[i], want[i][2].I, want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestAllocsSortRows: sorting INT-keyed rows allocates a constant
// number of times whatever their count — the radix path's key array and
// scratch are one allocation, the permutation is in place, and the
// runs of equal leading key sort without allocating.
func TestAllocsSortRows(t *testing.T) {
	skipAllocsUnderRace(t)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{100, 1000, 20000} {
		arrival := make([]expr.Row, n)
		for i := range arrival {
			key := expr.Int(rng.Int63n(int64(n/2)) - int64(n/4))
			if i%50 == 0 {
				key = expr.Null()
			}
			arrival[i] = expr.Row{key, expr.Int(rng.Int63n(4)), expr.Int(int64(i))}
		}
		rows := make([]expr.Row, n)
		for _, by := range [][]int{{0}, {0, 1}} {
			for _, desc := range []bool{false, true} {
				allocs := testing.AllocsPerRun(5, func() {
					copy(rows, arrival)
					sortRows(rows, by, desc)
				})
				if allocs > 3 {
					t.Errorf("n=%d by=%v desc=%v: %.1f allocations, want at most 3", n, by, desc, allocs)
				}
			}
		}
	}
}
