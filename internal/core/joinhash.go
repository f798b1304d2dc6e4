package core

import "rdbdyn/internal/expr"

// The build/probe hash join (hj), the fourth per-stage competitor next
// to nl/inl/ridx, and nl itself: hj over no key columns, every built row
// on the one empty key. One side is built into an in-memory table keyed
// by the order-preserving encodings of the connecting equi-join columns;
// the other streams past it, each row walking its key's chain and
// re-verifying the predicates. joinStage.build picks the sides.

// hashJoinKey appends the encoded join-key values of row at the given
// positions. ok=false when any value is NULL: a NULL key never matches
// anything (SQL two-valued semantics), so NULL rows neither enter the
// build table nor probe it.
func hashJoinKey(buf []byte, row expr.Row, cols []int) (_ []byte, ok bool) {
	for _, c := range cols {
		v := row[c]
		if v.IsNull() {
			return buf, false
		}
		buf = expr.EncodeKey(buf, v)
	}
	return buf, true
}

// hashTable chains the built rows of one key through next, in build
// order: one map lookup per built row, one assignment per distinct key.
// Rows are numbered from 1, so 0 — what the map holds for a key it
// lacks — ends a chain. Read-only once built: probe workers share it.
type hashTable struct {
	head map[string]int32 // key -> its first row
	rows []expr.Row
	next []int32 // per row, the following row of the same key
}

func newHashTable(rows []expr.Row, cols []int) *hashTable {
	h := &hashTable{head: make(map[string]int32), rows: rows, next: make([]int32, len(rows))}
	tail := make([]int32, len(rows)+1) // at a key's first row: its last row so far
	var key []byte
	for i, row := range rows {
		n, ok := int32(i+1), false
		if key, ok = hashJoinKey(key[:0], row, cols); !ok {
			continue
		}
		if first := h.head[string(key)]; first > 0 {
			h.next[tail[first]-1], tail[first] = n, n
		} else {
			h.head[string(key)], tail[n] = n, n
		}
	}
	return h
}
