package btree

import (
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// Entry is one index entry produced by batched cursor iteration.
type Entry struct {
	// Key is the encoded key as it lies in the leaf page; callers must
	// not modify it, and it stays valid only until the producing
	// cursor's next batch (the leaf may be unpinned and reloaded).
	Key []byte
	RID storage.RID
}

// NextBatch fills dst with up to len(dst) entries in ascending order and
// returns how many it produced; 0 means the cursor is exhausted. Each
// call drains at most the current leaf, so the leaf pin is taken once
// per page, the Governor is consulted once per leaf hop (inside the
// tree's page load), and the tracker charges are identical — in count
// and order — to per-entry Next calls: batching changes CPU cost only,
// never simulated I/O. Next and NextBatch may be interleaved freely.
func (c *Cursor) NextBatch(dst []Entry) (int, error) {
	if c.done || len(dst) == 0 {
		return 0, nil
	}
	for {
		if c.pos < len(c.node.ents) {
			return c.drainLeaf(dst), nil
		}
		// Leaf exhausted (or empty after lazy deletion): hop forward.
		if c.node.next() == 0 {
			c.done = true
			c.unpin()
			return 0, nil
		}
		next := storage.PageNo(c.node.next() - 1)
		n, err := c.tree.load(next, c.tr)
		if err != nil {
			return 0, err
		}
		c.setLeaf(n, next)
		c.pos = 0
	}
}

// drainLeaf copies in-range entries from the current position into dst.
// Caller guarantees c.pos < len(c.node.ents). When the upper bound
// cannot fall inside the copied run — decided with a single key compare
// against the run's last key — the copy skips per-entry bound checks.
func (c *Cursor) drainLeaf(dst []Entry) int {
	n := len(c.node.ents) - c.pos
	if n > len(dst) {
		n = len(dst)
	}
	if c.hi != nil && expr.CompareKeys(c.node.key(c.pos+n-1), c.hi) >= 0 {
		// The bound lands inside this run: walk to it entry by entry.
		for i := 0; i < n; i++ {
			k := c.node.key(c.pos)
			if expr.CompareKeys(k, c.hi) >= 0 {
				c.done = true
				c.unpin()
				return i
			}
			dst[i] = Entry{Key: k, RID: c.node.rid(c.pos)}
			c.pos++
		}
		return n
	}
	for i := 0; i < n; i++ {
		dst[i] = Entry{Key: c.node.key(c.pos + i), RID: c.node.rid(c.pos + i)}
	}
	c.pos += n
	return n
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
