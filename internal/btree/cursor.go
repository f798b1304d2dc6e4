package btree

import "rdbdyn/internal/storage"

// Cursor iterates entries in ascending (key, RID) order between an
// inclusive lower and exclusive upper encoded-key bound (nil = open).
// Every node and leaf visit is charged to the buffer pool, so cursor
// progress has measurable I/O cost.
//
// The cursor pins its current leaf in the buffer pool for as long as it
// holds a position there; the pin moves on each leaf hop and is dropped
// on exhaustion or Close. Callers that may abandon a cursor before
// exhaustion (cancelled scans) must Close it to release the pin.
type Cursor struct {
	tree   *BTree
	hi     []byte
	node   node
	no     storage.PageNo
	pos    int
	done   bool
	pinned bool
	tr     *storage.Tracker
}

// Seek positions a cursor at the first entry with key >= lo (or the
// first entry overall when lo is nil). hi is the exclusive upper bound
// on keys (nil = unbounded).
func (t *BTree) Seek(lo, hi []byte) (*Cursor, error) { return t.SeekTracked(lo, hi, nil) }

// SeekTracked is Seek charging the descent and all subsequent cursor
// page accesses to tr.
func (t *BTree) SeekTracked(lo, hi []byte, tr *storage.Tracker) (*Cursor, error) {
	c := &Cursor{tree: t, hi: hi, tr: tr}
	no := t.root
	for {
		n, err := t.load(no, tr)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			c.setLeaf(n, no)
			if lo == nil {
				c.pos = 0
			} else {
				c.pos = n.lowerBound(lo, storage.RID{})
			}
			return c, nil
		}
		if lo == nil {
			no = n.child(0)
		} else {
			no = n.child(n.findChild(lo, storage.RID{}))
		}
	}
}

// setLeaf repositions the cursor onto leaf n (page no), moving the pin.
func (c *Cursor) setLeaf(n node, no storage.PageNo) {
	c.unpin()
	c.node, c.no = n, no
	c.tree.pool.Pin(storage.PageID{File: c.tree.file, No: no})
	c.pinned = true
}

func (c *Cursor) unpin() {
	if c.pinned {
		c.tree.pool.Unpin(storage.PageID{File: c.tree.file, No: c.no})
		c.pinned = false
	}
}

// Next returns the next entry. ok is false when the cursor is
// exhausted (past hi or at the end of the tree). The returned key is
// the page's own bytes and must not be modified.
func (c *Cursor) Next() (key []byte, rid storage.RID, ok bool, err error) {
	start, n, err := c.nextRun(1)
	if n == 0 {
		return nil, storage.RID{}, false, err
	}
	return c.node.key(start), c.node.rid(start), true, nil
}

// Done reports whether the cursor has been exhausted.
func (c *Cursor) Done() bool { return c.done }

// Close releases the cursor's leaf pin. It is idempotent and required
// when a cursor is abandoned before exhaustion (an abandoned or
// cancelled scan); an exhausted cursor has already unpinned itself.
func (c *Cursor) Close() {
	c.done = true
	c.unpin()
}
