package btree

import (
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// Entry is one index entry produced by batched cursor iteration.
type Entry struct {
	// Key is the encoded key as it lies in the leaf page; callers must
	// not modify it. The leaf's arena is write-once (storage.Page), so
	// the key stays readable for as long as it is held, after the leaf
	// is unpinned, split or compacted.
	Key []byte
	RID storage.RID
}

// NextBatch fills dst with up to len(dst) entries in ascending order and
// returns how many it produced; 0 means the cursor is exhausted. Each
// call drains at most the current leaf, so the leaf pin is taken once
// per page, the Governor is consulted once per leaf hop (inside the
// tree's page load), and the tracker charges are identical — in count
// and order — to per-entry Next calls: batching changes CPU cost only,
// never simulated I/O. Next, NextBatch and NextRIDs may be interleaved
// freely.
func (c *Cursor) NextBatch(dst []Entry) (int, error) {
	start, n, err := c.nextRun(len(dst))
	for i := range n {
		dst[i] = Entry{Key: c.node.key(start + i), RID: c.node.rid(start + i)}
	}
	return n, err
}

// NextRIDs is NextBatch for a caller that needs no keys: it fills dst
// with the RIDs of the same entries, read straight off the leaf, with
// the same leaf walk, tracker charges and pins.
func (c *Cursor) NextRIDs(dst []storage.RID) (int, error) {
	start, n, err := c.nextRun(len(dst))
	for i := range n {
		dst[i] = c.node.rid(start + i)
	}
	return n, err
}

// NextRIDsIn is NextRIDs through keys, the ascending distinct Keys of
// an in-memory RID list, for a cursor whose range is one full key value,
// so that its RIDs ascend. It claims the same run as NextRIDs — the same
// leaf walk, charges, pins and n — but puts in dst, and returns as kept,
// only the run's RIDs whose Keys are in keys; between two of them it
// gallops, through the leaf's RIDs to the next key and through keys to
// the next RID, instead of reading every entry.
func (c *Cursor) NextRIDsIn(keys []uint64, dst []storage.RID) (n int, kept []storage.RID, err error) {
	start, n, err := c.nextRun(len(dst))
	kept = dst[:0]
	end := start + n
	for i, p := start, 0; i < end; {
		r := c.node.rid(i)
		k := r.Key()
		if p = rid.Gallop(p, len(keys), func(x int) bool { return keys[x] < k }); p == len(keys) {
			break
		}
		if keys[p] == k {
			kept = append(kept, r)
			i++
			continue
		}
		next := keys[p]
		i = rid.Gallop(i+1, end, func(x int) bool { return c.node.rid(x).Key() < next })
	}
	return n, kept, err
}

// nextRun is the leaf walk NextBatch and NextRIDs share: it hops to the
// next leaf with entries left, then claims the next run of at most max
// in-range entries of that leaf, returning its start position; n == 0
// means the cursor is exhausted. When the upper bound cannot fall
// inside the run — decided with a single key compare against the run's
// last key — the run skips per-entry bound checks. The claimed entries
// stay readable through c.node even when the bound ends the scan and
// unpins the leaf.
func (c *Cursor) nextRun(max int) (start, n int, err error) {
	if c.done || max == 0 {
		return 0, 0, nil
	}
	for c.pos >= c.node.numEnts() {
		// Leaf exhausted (or empty after lazy deletion): hop forward.
		if c.node.next() == 0 {
			c.done = true
			c.unpin()
			return 0, 0, nil
		}
		next := storage.PageNo(c.node.next() - 1)
		nd, err := c.tree.load(next, c.tr)
		if err != nil {
			return 0, 0, err
		}
		c.setLeaf(nd, next)
		c.pos = 0
	}
	start = c.pos
	n = min(c.node.numEnts()-start, max)
	if c.hi != nil && expr.CompareKeys(c.node.key(start+n-1), c.hi) >= 0 {
		// The bound lands inside this run: walk to it entry by entry.
		i := 0
		for expr.CompareKeys(c.node.key(start+i), c.hi) < 0 {
			i++
		}
		n = i
		c.done = true
		c.unpin()
	}
	c.pos = start + n
	return start, n, nil
}

// NextBatch fills dst with up to len(dst) entries in descending order
// and returns how many it produced; 0 means exhaustion. Like the
// forward cursor's NextBatch it drains at most the current leaf per
// call, and it retreats through the descent stack at the end of the
// batch — eagerly, exactly when per-entry Next would — so the page-load
// charges are identical to per-entry iteration.
func (c *ReverseCursor) NextBatch(dst []Entry) (int, error) {
	if c.done || len(dst) == 0 {
		return 0, nil
	}
	n := 0
	for n < len(dst) {
		k, r := c.node.key(c.pos), c.node.rid(c.pos)
		if c.lo != nil && expr.CompareKeys(k, c.lo) < 0 {
			c.done = true
			c.unpin()
			return n, nil
		}
		dst[n] = Entry{Key: k, RID: r}
		n++
		c.pos--
		if c.pos < 0 {
			if err := c.retreat(); err != nil {
				return n, err
			}
			return n, nil
		}
	}
	return n, nil
}
