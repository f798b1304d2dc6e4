// Package btree implements a B+-tree index over buffer-pool pages.
//
// The tree is the workhorse of the reproduction: beyond Insert/Delete
// and range cursors it exposes exactly the introspection the paper's
// dynamic optimizer needs —
//
//   - EstimateRange: the "descent to split node" estimator of Section 5
//     (k * f^(l-1), with the B-tree itself acting as a hierarchical,
//     always-up-to-date histogram);
//   - CountRange: exact range cardinality in O(height), possible because
//     internal nodes carry per-child subtree counts ("pseudo-ranked");
//   - SampleRange: uniform random sampling of range entries by ranked
//     descent, standing in for the [Ant92] sampler, plus the classic
//     acceptance/rejection sampler of [OlRo89] as a baseline.
//
// Every node visit goes through the buffer pool and is therefore charged
// I/O, so estimation cost is measurable — the paper requires the
// estimation phase to be "significantly shorter than the productive
// retrieval phases", and the experiments verify that.
//
// Keys are order-preserving encodings (expr.EncodeKey). Duplicate keys
// are supported; entries order by (key, RID). Deletion is lazy (no
// rebalancing): emptied leaves remain in the tree and cursors skip them,
// the common trade-off in production B-trees.
package btree

import (
	"errors"
	"slices"

	"rdbdyn/internal/storage"
)

// ErrKeyTooLarge is returned when a key cannot fit comfortably in a page.
var ErrKeyTooLarge = errors.New("btree: key too large for page")

// BTree is a B+-tree whose nodes are buffer-pool pages of a dedicated
// disk file (node.go describes the page layout). Descents and cursors
// read the pages directly and may run concurrently; tree mutations
// (Insert/Delete) must be serialized by the caller and must not overlap
// reads of the same tree.
type BTree struct {
	pool *storage.BufferPool
	file storage.FileID // file holding the tree's pages
	data storage.FileID // heap file the RIDs point into

	root   storage.PageNo
	height int // 1 = root is a leaf

	len         int64 // total entries
	numLeaves   int
	numInternal int
	totChildren int64 // sum of child counts over internal nodes

	budget  int    // per-node byte budget
	scratch []byte // the entry being inserted, assembled here and copied by the page
}

// New creates an empty tree on a fresh file of the pool's disk.
// dataFile is the heap file whose records the RIDs reference.
func New(pool *storage.BufferPool, dataFile storage.FileID) (*BTree, error) {
	t := &BTree{
		pool:   pool,
		file:   pool.Disk().CreateFile(),
		data:   dataFile,
		budget: pool.Disk().PageSize() - 32,
	}
	no, err := t.allocNode(true, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	t.root = no
	t.height = 1
	t.numLeaves = 1
	return t, nil
}

// Len returns the number of entries.
func (t *BTree) Len() int64 { return t.len }

// Height returns the number of levels (1 = root is a leaf).
func (t *BTree) Height() int { return t.height }

// NumNodes returns the number of pages (nodes) in the tree.
func (t *BTree) NumNodes() int { return t.numLeaves + t.numInternal }

// File returns the tree's disk file.
func (t *BTree) File() storage.FileID { return t.file }

// AvgLeafEntries returns the average number of entries per leaf.
func (t *BTree) AvgLeafEntries() float64 {
	if t.numLeaves == 0 {
		return 0
	}
	return float64(t.len) / float64(t.numLeaves)
}

// AvgInternalFanout returns the average child count of internal nodes,
// or 0 when the tree has no internal nodes.
func (t *BTree) AvgInternalFanout() float64 {
	if t.numInternal == 0 {
		return 0
	}
	return float64(t.totChildren) / float64(t.numInternal)
}

// load fetches a node, charging buffer-pool traffic to tr (nil = global
// counters only).
func (t *BTree) load(no storage.PageNo, tr *storage.Tracker) (node, error) {
	p, err := t.pool.GetTracked(storage.PageID{File: t.file, No: no}, tr)
	if err != nil {
		return node{}, err
	}
	return viewNode(p, t.data)
}

// loadDirty re-fetches a node a mutation is about to write, marking its
// page dirty. Every mutation loads its path clean on the way down and
// dirty on the way back up, leaf first: the order of page touches the
// simulated I/O figures were recorded under (DESIGN.md, "B-tree page
// layout").
func (t *BTree) loadDirty(no storage.PageNo) (node, error) {
	p, err := t.pool.GetDirty(storage.PageID{File: t.file, No: no})
	if err != nil {
		return node{}, err
	}
	return viewNode(p, t.data)
}

// allocNode builds a node on a fresh page.
func (t *BTree) allocNode(leaf bool, link uint32, count0 int64, ents [][]byte) (storage.PageNo, error) {
	p, err := t.pool.NewPage(t.file)
	if err != nil {
		return 0, err
	}
	return p.ID.No, fillNode(p, leaf, link, count0, ents)
}

// leafEntry assembles key | RID in the tree's scratch buffer.
func (t *BTree) leafEntry(key []byte, rid storage.RID) []byte {
	t.scratch = appendRID(append(t.scratch[:0], key...), rid)
	return t.scratch
}

// separator assembles the separator in front of a split's right half.
func (t *BTree) separator(sp *splitResult) []byte {
	t.scratch = appendRef(t.leafEntry(sp.sepKey, sp.sepRID), sp.right, sp.rightCount)
	return t.scratch
}

type splitResult struct {
	sepKey     []byte
	sepRID     storage.RID
	right      storage.PageNo
	rightCount int64
}

// Insert adds the entry (key, rid). Duplicate keys are allowed; the
// exact pair (key, rid) may appear multiple times, but indexes in this
// repository never insert the same pair twice.
func (t *BTree) Insert(key []byte, rid storage.RID) error {
	if len(key) > t.budget/4 {
		return ErrKeyTooLarge
	}
	sp, err := t.insertAt(t.root, key, rid)
	if err != nil {
		return err
	}
	t.len++
	if sp == nil {
		return nil
	}
	// Root split: grow a new root over the old one and its new sibling.
	old, err := t.load(t.root, nil)
	if err != nil {
		return err
	}
	no, err := t.allocNode(false, uint32(t.root), old.subtreeCount(), [][]byte{t.separator(sp)})
	if err != nil {
		return err
	}
	t.root = no
	t.height++
	t.numInternal++
	t.totChildren += 2
	return nil
}

// insertAt inserts (key, rid) below node no. Unless a node splits, the
// leaf gets one new slot and each ancestor one rewritten count field.
func (t *BTree) insertAt(no storage.PageNo, key []byte, rid storage.RID) (*splitResult, error) {
	n, err := t.load(no, nil)
	if err != nil {
		return nil, err
	}
	var (
		pos  int    // where the node's new entry goes
		ent  []byte // the entry, with klen key bytes
		klen = len(key)
		kept int64 // internal node: what child pos holds afterwards
	)
	if n.leaf {
		pos, ent = n.lowerBound(key, rid), t.leafEntry(key, rid)
	} else {
		pos = n.findChild(key, rid)
		sp, err := t.insertAt(n.child(pos), key, rid)
		if err != nil {
			return nil, err
		}
		kept = n.count(pos) + 1
		if sp == nil {
			if n, err = t.loadDirty(no); err == nil {
				n.setCount(pos, kept)
			}
			return nil, err
		}
		// Child pos split: its right half is the new child pos+1, behind
		// a new separator at position pos.
		kept -= sp.rightCount
		ent, klen = t.separator(sp), len(sp.sepKey)
		t.totChildren++
	}
	if n.bytes()+entryBytes(n.leaf, klen) > t.budget {
		return t.split(no, n, pos, ent, kept)
	}
	if n, err = t.loadDirty(no); err != nil {
		return nil, err
	}
	if !n.leaf {
		n.setCount(pos, kept)
	}
	return nil, n.page.InsertAt(1+pos, ent)
}

// split divides node n (page no), which entry ent at position pos
// overflows, at the middle of its entries: the upper half moves to a
// fresh right sibling, and both halves are rebuilt. A leaf's middle
// entry is copied up as the separator; an internal node's moves up.
func (t *BTree) split(no storage.PageNo, n node, pos int, ent []byte, kept int64) (*splitResult, error) {
	leaf, link, count0 := n.leaf, n.next(), int64(0)
	// The node's entries as they would be with ent in place, materialised
	// once: views of the page's write-once records, which stay valid
	// while the halves are rebuilt, and a copy of ent.
	ents := make([][]byte, 0, n.numEnts()+1)
	for i := range n.numEnts() {
		ents = append(ents, n.ent(i))
	}
	ents = slices.Insert(ents, pos, slices.Clone(ent))
	if !leaf {
		// Child pos now holds kept entries; its count sits in the header
		// or in the separator before the new one, copied before the write
		// because the page is not dirty yet.
		link, count0 = uint32(n.child(0)), n.count(0)
		if pos == 0 {
			count0 = kept
		} else {
			ents[pos-1] = slices.Clone(ents[pos-1])
			putRefCount(sepRef(ents[pos-1]), kept)
		}
	}
	mid := len(ents) / 2
	sp := &splitResult{sepKey: entKey(ents[mid], n.tail), sepRID: entRID(ents[mid], n.tail, n.data)}
	var err error
	if leaf {
		sp.rightCount = int64(len(ents) - mid)
		sp.right, err = t.allocNode(true, link, 0, ents[mid:])
		link = uint32(sp.right) + 1
	} else {
		for _, e := range ents[mid:] {
			sp.rightCount += refCount(sepRef(e))
		}
		ref := sepRef(ents[mid])
		sp.right, err = t.allocNode(false, uint32(refChild(ref)), refCount(ref), ents[mid+1:])
	}
	if err != nil {
		return nil, err
	}
	if n, err = t.loadDirty(no); err != nil {
		return nil, err
	}
	n.page.Truncate(0)
	if err = fillNode(n.page, leaf, link, count0, ents[:mid]); err != nil {
		return nil, err
	}
	if leaf {
		t.numLeaves++
	} else {
		t.numInternal++
	}
	return sp, nil
}

// Delete removes the exact entry (key, rid). It returns false when the
// entry is not present. Deletion is lazy: nodes are never merged.
func (t *BTree) Delete(key []byte, rid storage.RID) (bool, error) {
	del, err := t.deleteAt(t.root, key, rid)
	if err != nil {
		return false, err
	}
	if del {
		t.len--
	}
	return del, nil
}

func (t *BTree) deleteAt(no storage.PageNo, key []byte, rid storage.RID) (bool, error) {
	n, err := t.load(no, nil)
	if err != nil {
		return false, err
	}
	if n.leaf {
		pos := n.lowerBound(key, rid)
		if pos >= n.numEnts() || n.cmp(pos, key, rid) != 0 {
			return false, nil
		}
		if n, err = t.loadDirty(no); err != nil {
			return false, err
		}
		return true, n.page.RemoveAt(1 + pos)
	}
	i := n.findChild(key, rid)
	del, err := t.deleteAt(n.child(i), key, rid)
	if err != nil || !del {
		return del, err
	}
	if n, err = t.loadDirty(no); err != nil {
		return false, err
	}
	n.setCount(i, n.count(i)-1)
	return true, nil
}

// Contains reports whether the exact entry (key, rid) is present.
func (t *BTree) Contains(key []byte, rid storage.RID) (bool, error) {
	no := t.root
	for {
		n, err := t.load(no, nil)
		if err != nil {
			return false, err
		}
		if n.leaf {
			pos := n.lowerBound(key, rid)
			return pos < n.numEnts() && n.cmp(pos, key, rid) == 0, nil
		}
		no = n.child(n.findChild(key, rid))
	}
}
