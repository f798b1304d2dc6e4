package btree

import (
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// ReverseCursor iterates entries in descending (key, RID) order between
// an inclusive lower and exclusive upper encoded-key bound. Leaves are
// singly linked forward, so the cursor keeps the root-to-leaf descent
// path and retreats through it to reach each previous leaf — O(height)
// page accesses per leaf transition, all charged to the buffer pool.
//
// Descending scans are what make "ORDER BY ... DESC" an order-needed
// use of an ascending index.
//
// Like the forward Cursor, the reverse cursor pins its current leaf and
// releases the pin on exhaustion or Close.
type ReverseCursor struct {
	tree   *BTree
	lo     []byte
	stack  []revFrame
	node   node
	curNo  storage.PageNo
	pos    int
	done   bool
	pinned bool
	tr     *storage.Tracker
}

type revFrame struct {
	no  storage.PageNo
	idx int
}

// SeekReverse positions a cursor at the last entry with key < hi (or
// the last entry overall when hi is nil). lo is the inclusive lower
// bound on keys (nil = unbounded).
func (t *BTree) SeekReverse(lo, hi []byte) (*ReverseCursor, error) {
	return t.SeekReverseTracked(lo, hi, nil)
}

// SeekReverseTracked is SeekReverse charging the descent and all
// subsequent cursor page accesses to tr.
func (t *BTree) SeekReverseTracked(lo, hi []byte, tr *storage.Tracker) (*ReverseCursor, error) {
	c := &ReverseCursor{tree: t, lo: lo, tr: tr}
	no := t.root
	for {
		n, err := t.load(no, tr)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			c.setLeaf(n, no)
			if hi == nil {
				c.pos = n.numEnts() - 1
			} else {
				c.pos = n.lowerBound(hi, storage.RID{}) - 1
			}
			if c.pos < 0 {
				if err := c.retreat(); err != nil {
					c.unpin()
					return nil, err
				}
			}
			return c, nil
		}
		idx := n.numEnts()
		if hi != nil {
			idx = n.findChild(hi, storage.RID{})
		}
		c.stack = append(c.stack, revFrame{no: no, idx: idx})
		no = n.child(idx)
	}
}

// setLeaf repositions the cursor onto leaf n (page no), moving the pin.
func (c *ReverseCursor) setLeaf(n node, no storage.PageNo) {
	c.unpin()
	c.node, c.curNo = n, no
	c.tree.pool.Pin(storage.PageID{File: c.tree.file, No: no})
	c.pinned = true
}

func (c *ReverseCursor) unpin() {
	if c.pinned {
		c.tree.pool.Unpin(storage.PageID{File: c.tree.file, No: c.curNo})
		c.pinned = false
	}
}

// retreat moves to the last entry of the previous leaf.
func (c *ReverseCursor) retreat() error {
	for {
		// Pop exhausted frames.
		for len(c.stack) > 0 && c.stack[len(c.stack)-1].idx == 0 {
			c.stack = c.stack[:len(c.stack)-1]
		}
		if len(c.stack) == 0 {
			c.done = true
			c.unpin()
			return nil
		}
		c.stack[len(c.stack)-1].idx--
		// Descend rightmost from the new child.
		f := c.stack[len(c.stack)-1]
		parent, err := c.tree.load(f.no, c.tr)
		if err != nil {
			return err
		}
		no := parent.child(f.idx)
		for {
			n, err := c.tree.load(no, c.tr)
			if err != nil {
				return err
			}
			if n.leaf {
				c.setLeaf(n, no)
				c.pos = n.numEnts() - 1
				break
			}
			c.stack = append(c.stack, revFrame{no: no, idx: n.numEnts()})
			no = n.child(n.numEnts())
		}
		if c.pos >= 0 {
			return nil
		}
		// Empty leaf (lazy deletion): keep retreating.
	}
}

// Next returns the next entry in descending order; ok is false when the
// cursor passes below lo or exhausts the tree.
func (c *ReverseCursor) Next() (key []byte, rid storage.RID, ok bool, err error) {
	if c.done {
		return nil, storage.RID{}, false, nil
	}
	k, r := c.node.key(c.pos), c.node.rid(c.pos)
	if c.lo != nil && expr.CompareKeys(k, c.lo) < 0 {
		c.done = true
		c.unpin()
		return nil, storage.RID{}, false, nil
	}
	c.pos--
	if c.pos < 0 {
		if err := c.retreat(); err != nil {
			return nil, storage.RID{}, false, err
		}
	}
	return k, r, true, nil
}

// Close releases the cursor's leaf pin. It is idempotent and required
// when the cursor is abandoned before exhaustion.
func (c *ReverseCursor) Close() {
	c.done = true
	c.unpin()
}
