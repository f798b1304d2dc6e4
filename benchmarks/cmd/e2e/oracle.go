package main

import (
	"fmt"
	"sort"

	"rdbdyn/internal/expr"
)

// Row hashing. Engine rows and reference rows hash alike when their
// cells are equal, so result sets compare as multisets of hashes.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashInt(h uint64, i int64) uint64 {
	h = (h ^ 'i') * fnvPrime
	for s := 0; s < 64; s += 8 {
		h = (h ^ uint64(byte(i>>s))) * fnvPrime
	}
	return h
}

func hashStr(h uint64, s string) uint64 {
	h = (h ^ 's') * fnvPrime
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

func hashRow(row expr.Row) uint64 {
	h := uint64(fnvOffset)
	for _, v := range row {
		if v.T == expr.TypeString {
			h = hashStr(h, v.S)
		} else {
			h = hashInt(h, v.I)
		}
	}
	return h
}

func hashVals(row []val) uint64 {
	h := uint64(fnvOffset)
	for _, v := range row {
		if v.str {
			h = hashStr(h, v.s)
		} else {
			h = hashInt(h, v.i)
		}
	}
	return h
}

// refResult is what the oracle expects of one op.
type refResult struct {
	matches [][]val // every matching row, projected; in ORDER BY order when the spec orders
	count   int     // rows the engine must deliver (after LIMIT), or the COUNT(*) value
}

// oracle is the reference evaluator: brute-force filter, hash join,
// stable sort, LIMIT, all over the generator's slices. It memoizes the
// join hash tables, which depend only on (table, column).
type oracle struct {
	index map[*refTable]map[int]map[int64][][]val
}

func newOracle() *oracle { return &oracle{index: map[*refTable]map[int]map[int64][][]val{}} }

func (o *oracle) hashIndex(t *refTable, col int) map[int64][][]val {
	if o.index[t] == nil {
		o.index[t] = map[int]map[int64][][]val{}
	}
	if ix := o.index[t][col]; ix != nil {
		return ix
	}
	ix := map[int64][][]val{}
	for _, row := range t.rows {
		ix[row[col].i] = append(ix[row[col].i], row)
	}
	o.index[t][col] = ix
	return ix
}

// localOK applies the predicates that touch only table ti (a joining
// spec is always a conjunction).
func localOK(s *spec, ti int, row []val) bool {
	for _, p := range s.preds {
		if p.c.tab == ti && !p.holds(row[p.c.col].i) {
			return false
		}
	}
	return true
}

func (o *oracle) eval(s *spec) refResult {
	if len(s.from) > 1 && s.or {
		panic("benchmark bug: OR over a join is not generated")
	}
	var tuples [][][]val
	tuple := make([][]val, 1)
	for _, row := range s.from[0].rows {
		tuple[0] = row
		if len(s.from) == 1 && s.matches(tuple) || len(s.from) > 1 && localOK(s, 0, row) {
			tuples = append(tuples, [][]val{row})
		}
	}
	// Fold the remaining tables in FROM order, one hash join per edge.
	for i, e := range s.on {
		inner, outer := e[0], e[1]
		if inner.tab != i+1 {
			inner, outer = e[1], e[0]
		}
		ix := o.hashIndex(s.from[i+1], inner.col)
		var next [][][]val
		for _, tu := range tuples {
			for _, row := range ix[tu[outer.tab][outer.col].i] {
				if !localOK(s, i+1, row) {
					continue
				}
				nt := make([][]val, len(tu)+1)
				copy(nt, tu)
				nt[len(tu)] = row
				next = append(next, nt)
			}
		}
		tuples = next
	}
	if s.order != nil {
		oc := *s.order
		sort.SliceStable(tuples, func(a, b int) bool {
			return tuples[a][oc.tab][oc.col].i < tuples[b][oc.tab][oc.col].i
		})
	}
	out := s.outCols()
	res := refResult{matches: make([][]val, len(tuples)), count: len(tuples)}
	for i, tu := range tuples {
		row := make([]val, len(out))
		for j, c := range out {
			row[j] = tu[c.tab][c.col]
		}
		res.matches[i] = row
	}
	if s.limit > 0 && res.count > s.limit && !s.count {
		res.count = s.limit
	}
	return res
}

// checkOracle compares what the engine delivered for op o (n rows, or
// the COUNT value, plus the sink's hashes and keys) with the reference.
//
//   - COUNT: the value.
//   - no LIMIT: the row multiset (order-insensitive); under ORDER BY the
//     key sequence too, so ties may come in any order.
//   - LIMIT: min(limit, matches) rows, each a member of the match set
//     (with multiplicity); under ORDER BY the key sequence must equal
//     the reference's first keys.
func checkOracle(o *op, n int, got *rowSink, want refResult) error {
	s := o.spec
	if n != want.count {
		return fmt.Errorf("%d rows (or COUNT value), reference says %d", n, want.count)
	}
	if s.count {
		return nil
	}
	pool := make(map[uint64]int, len(want.matches))
	for _, row := range want.matches {
		pool[hashVals(row)]++
	}
	for _, h := range got.hashes {
		if pool[h] == 0 {
			return fmt.Errorf("a delivered row is not in the reference result (or is delivered too often)")
		}
		pool[h]--
	}
	// With no LIMIT the counts are equal and every delivered row was
	// matched off, so the multisets are equal.
	for i, k := range got.keys { // filled only when the ORDER BY key is projected
		if ref := want.matches[i][o.orderPos].i; k != ref {
			return fmt.Errorf("ORDER BY key %d at position %d, reference has %d", k, i, ref)
		}
	}
	return nil
}
