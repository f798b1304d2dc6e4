package core

import (
	"cmp"
	"slices"

	"rdbdyn/internal/expr"
)

// sortRows orders rows by the given column positions (the SORT node the
// paper's goal-inference rules refer to; used when an order is requested
// but no order-needed index carries the retrieval). The order is stable:
// rows with equal keys keep their arrival order, and desc reverses the
// key order, never the arrival order. When every leading key is an INT
// or NULL, the leading keys are radix-sorted (sortIntKeys); any other
// leading key type takes the comparison sort (sortCompared).
func sortRows(rows []expr.Row, by []int, desc bool) {
	nulls := 0
	for _, r := range rows {
		switch r[by[0]].T {
		case expr.TypeInt:
		case expr.TypeNull:
			nulls++
		default:
			sortCompared(rows, by, desc)
			return
		}
	}
	sortIntKeys(rows, by, desc, nulls)
}

// sortCompared is the comparison sort. Each row's leading sort key is
// extracted once, beside its arrival sequence: the sequence breaks ties,
// so an unstable O(n log n) sort yields the stable order.
func sortCompared(rows []expr.Row, by []int, desc bool) {
	type keyed struct {
		key expr.Value
		row expr.Row
		seq int
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{key: r[by[0]], row: r, seq: i}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		d := expr.Compare(a.key, b.key)
		for _, c := range by[1:] {
			if d != 0 {
				break
			}
			d = expr.Compare(a.row[c], b.row[c])
		}
		if desc {
			d = -d
		}
		if d == 0 {
			d = a.seq - b.seq
		}
		return d
	})
	for i := range ks {
		rows[i] = ks[i].row
	}
}

// intKey is a row's leading INT sort key in unsigned form, beside the
// row's arrival index: unsigned order of key is the requested order.
type intKey struct {
	key uint64
	idx int // an int32 would pad to the same 16 bytes
}

// sortIntKeys sorts rows whose leading keys are all INT or NULL, nulls
// of them NULL. expr.Compare ranks NULL below every INT, so the NULL
// rows lead an ascending order and trail a descending one, in arrival
// order; the INT keys, sign bit flipped (and complemented for desc), go
// through a stable radix sort. Further ORDER BY columns are compared
// only inside runs of equal leading key, and the rows are permuted once,
// in place. The key array and its radix scratch are the one allocation.
func sortIntKeys(rows []expr.Row, by []int, desc bool, nulls int) {
	n := len(rows)
	buf := make([]intKey, 2*n)
	ks, tmp := buf[:n], buf[n:]
	flip := uint64(1) << 63
	ints, at := ks[nulls:], ks[:nulls] // where INT and NULL keys go
	if desc {
		flip = ^flip
		ints, at = ks[:n-nulls], ks[n-nulls:]
	}
	j := 0
	for i, r := range rows {
		if v := r[by[0]]; v.T == expr.TypeInt {
			ints[j] = intKey{key: uint64(v.I) ^ flip, idx: i}
			j++
		} else {
			at[i-j] = intKey{idx: i}
		}
	}
	radixSort(ints, tmp[:len(ints)])
	if len(by) > 1 {
		sortRuns(at, rows, by[1:], desc)
		sortRuns(ints, rows, by[1:], desc)
	}
	// Position i takes the row that arrived at ks[i].idx. Each cycle of
	// the permutation is followed once, marking its entries placed.
	for i := range ks {
		if ks[i].idx == i {
			continue
		}
		first, k := rows[i], i
		for next := ks[k].idx; next != i; next = ks[k].idx {
			rows[k] = rows[next]
			ks[k].idx = k
			k = next
		}
		rows[k] = first
		ks[k].idx = k
	}
}

// radixSort sorts ks by key with stable least-significant-digit passes
// of one byte each, skipping the bytes every key shares; tmp is scratch
// of ks's length.
func radixSort(ks, tmp []intKey) {
	if len(ks) < 2 {
		return
	}
	var varying uint64
	for _, k := range ks[1:] {
		varying |= k.key ^ ks[0].key
	}
	src, dst := ks, tmp
	for shift := 0; varying>>shift != 0; shift += 8 {
		if byte(varying>>shift) == 0 {
			continue
		}
		var next [256]int // each digit's next slot in dst
		for _, k := range src {
			next[byte(k.key>>shift)]++
		}
		sum := 0
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		for _, k := range src {
			d := byte(k.key >> shift)
			dst[next[d]] = k
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ks[0] {
		copy(ks, src)
	}
}

// sortRuns orders each run of equal leading key in ks by the further
// ORDER BY columns of the rows it indexes, negated for desc; arrival
// order breaks the remaining ties.
func sortRuns(ks []intKey, rows []expr.Row, by []int, desc bool) {
	for i := 0; i < len(ks); {
		j := i + 1
		for j < len(ks) && ks[j].key == ks[i].key {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ks[i:j], func(a, b intKey) int {
				ra, rb := rows[a.idx], rows[b.idx]
				d := 0
				for _, c := range by {
					if d = expr.Compare(ra[c], rb[c]); d != 0 {
						break
					}
				}
				if desc {
					d = -d
				}
				if d == 0 {
					d = cmp.Compare(a.idx, b.idx)
				}
				return d
			})
		}
		i = j
	}
}
