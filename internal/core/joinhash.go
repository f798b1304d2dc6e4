package core

import (
	"fmt"
	"sync/atomic"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// The build/probe hash-join operator (hj): the fourth per-stage
// competitor next to nl/inl/ridx. One tracked scan of the inner table
// builds an in-memory hash table over its qualifying rows — via the
// restriction-index range when planning found that cheaper than the
// heap — keyed by the concatenated order-preserving encodings of every
// connecting equi-join column. The probe phase is pure CPU: each outer
// row looks up its key bucket and re-verifies the predicates against
// the candidates (hash buckets may alias; predsMatch is the truth).
// All charged I/O is the build scan's, attributed through the stage
// meter like every other operator.

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

// execHJ runs one hj stage: build over the inner table's qualifying
// rows, probe from the outer (driver) side.
func (je *joinExec) execHJ(sg *JoinStagePlan, preds []stagePred, outer []expr.Row) ([]expr.Row, storage.IOStats, error) {
	if len(preds) == 0 {
		return nil, storage.IOStats{}, fmt.Errorf("core: hj stage on %s without an equi-join predicate", je.jq.nameOf(sg.Table))
	}
	m := newMeter(je.ec)
	t := sg.Table
	off := je.offs[t]
	innerCols := make([]int, len(preds))
	outerCols := make([]int, len(preds))
	for i, sp := range preds {
		innerCols[i] = sp.innerCol
		outerCols[i] = sp.outerPos
	}

	ht := make(map[string][]expr.Row)
	var kbuf []byte
	insert := func(view expr.Row) {
		key, ok := hashJoinKey(kbuf[:0], view, innerCols)
		kbuf = key
		if !ok {
			return
		}
		ht[string(key)] = append(ht[string(key)], view.Own(nil))
	}
	// Index-assisted build: the restriction index bounds the qualifying
	// rows, so only they are fetched; otherwise the heap is scanned.
	var (
		ix     *catalog.Index
		lo, hi []byte
	)
	if sg.Index != "" {
		info := je.infos[t]
		if info.restrIx == nil || info.restrIx.Name != sg.Index {
			return nil, m.io(), fmt.Errorf("core: hj build index %s.%s is not the restriction index", je.jq.Tables[t].Name, sg.Index)
		}
		ix, lo, hi = info.restrIx, info.restrLo, info.restrHi
	}
	if err := je.scanLocal(t, ix, lo, hi, false, m.tr, insert); err != nil {
		return nil, m.io(), err
	}

	// The probe charges no I/O, so the width policy prices it through the
	// CPU-in-I/O currency — small probe sides stay sequential. Contiguous
	// outer chunks probe the shared read-only table concurrently and
	// concatenate in chunk order, matching the sequential probe exactly;
	// the probe work cannot fail, so fanOut's error is always nil.
	width := je.probeWidth("HashProbe", estimate.JoinCPUCost(float64(len(outer))), len(outer))
	k := min(width, max(1, len(outer)))
	outs := make([][]expr.Row, k)
	_ = fanOut(m.tr, k, func(i int, _ *storage.Tracker, _ *atomic.Bool) error {
		outs[i] = hjProbeChunk(ht, preds, outerCols, outer[i*len(outer)/k:(i+1)*len(outer)/k], off)
		return nil
	})
	out := outs[0]
	for _, o := range outs[1:] {
		out = append(out, o...)
	}
	return out, m.io(), nil
}

// hjProbeChunk is the hj probe kernel: it probes the (read-only) hash
// table for a contiguous run of outer rows, preserving outer order in
// the output.
func hjProbeChunk(ht map[string][]expr.Row, preds []stagePred, outerCols []int, outer []expr.Row, off int) []expr.Row {
	var out []expr.Row
	var kbuf []byte
	for _, orow := range outer {
		key, ok := hashJoinKey(kbuf[:0], orow, outerCols)
		kbuf = key
		if !ok {
			continue
		}
		for _, irow := range ht[string(key)] {
			if predsMatch(preds, orow, irow) {
				out = append(out, combineRows(orow, irow, off))
			}
		}
	}
	return out
}
