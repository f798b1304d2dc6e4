package core

import (
	"hash/maphash"
	"math"
	"math/bits"

	"rdbdyn/internal/expr"
)

// The build/probe hash join (hj), the fourth per-stage competitor next
// to nl/inl/ridx, and nl itself: hj over no key columns, every built row
// on the one empty key. One side is built into an in-memory table keyed
// by a hash of the connecting equi-join columns; the other streams past
// it, each row walking its key's chain and re-verifying the predicates.
// joinStage.build picks the sides.

var hashJoinSeed = maphash.MakeSeed()

// hashJoinKey hashes the join-key values of row at the given positions:
// keys whose expr.EncodeKey bytes are equal hash equally (numbers by
// their shared float64 code). Unequal keys may collide; predsMatch is
// the exact check. ok=false when any value is NULL: a NULL key never
// matches anything (SQL two-valued semantics), so NULL rows neither
// enter the build table nor probe it.
func hashJoinKey(row expr.Row, cols []int) (h uint64, ok bool) {
	for _, c := range cols {
		var x uint64
		switch v := row[c]; v.T {
		case expr.TypeNull:
			return 0, false
		case expr.TypeBool:
			x = uint64(byte(v.I))
		case expr.TypeInt, expr.TypeFloat:
			f, _ := v.AsFloat()
			x = math.Float64bits(f)
		case expr.TypeString:
			x = maphash.String(hashJoinSeed, v.S)
		}
		h = (bits.RotateLeft64(h, 29) ^ x) * 0x9e3779b97f4a7c15
	}
	return h, true
}

// hashTable chains the built rows of one key hash through next, in build
// order: one map lookup per built row, one assignment per distinct hash.
// Rows are numbered from 1, so 0 — what the map holds for a hash it
// lacks — ends a chain. Read-only once built.
type hashTable struct {
	head map[uint64]int32 // key hash -> its first row
	rows []expr.Row
	next []int32 // per row, the following row of the same hash
}

func newHashTable(rows []expr.Row, cols []int) *hashTable {
	h := &hashTable{head: make(map[uint64]int32), rows: rows, next: make([]int32, len(rows))}
	tail := make([]int32, len(rows)+1) // at a hash's first row: its last row so far
	for i, row := range rows {
		key, ok := hashJoinKey(row, cols)
		if !ok {
			continue
		}
		if n, first := int32(i+1), h.head[key]; first > 0 {
			h.next[tail[first]-1], tail[first] = n, n
		} else {
			h.head[key], tail[n] = n, n
		}
	}
	return h
}
