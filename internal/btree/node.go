package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// ErrCorruptNode is returned when a page does not hold a node.
var ErrCorruptNode = errors.New("btree: corrupt node")

// The page is the node (DESIGN.md, "B-tree page layout"). Slot 0 holds
// the header, every later slot one entry, sorted by the composite order
// (CompareKeys on key, then RID order; duplicates of a key are
// distinguished by RID):
//
//	header     leaf flag (1) | link (4) | count0 (8)
//	leaf entry key | RID (6)
//	separator  key | RID (6) | child (4) | count (8)
//
// A leaf's link is its next sibling's page number + 1 (0 = last leaf).
// An internal node's link and count0 are child 0; separator i carries
// child i+1, which holds the entries in [sep i, sep i+1), and that
// child's subtree entry count. The counts make the tree "pseudo-ranked":
// exact range counts and uniform random sampling both become O(height)
// descents, which is what the [Ant92]-style sampler in this package
// relies on.
const (
	hdrBytes = 1 + 4 + 8
	ridBytes = 6
	sepTail  = ridBytes + 4 + 8 // what follows the key in a separator
	refBytes = 4 + 8            // child | count, the end of a separator and of the header

	// slotBytes is what a page charges per record on top of its length,
	// so an entry costs its page exactly entryBytes and a node's
	// accounted size follows from the page's (node.bytes).
	slotBytes         = 4
	nodeBaseBytes     = 16
	leafEntryOverhead = slotBytes + ridBytes
	sepEntryOverhead  = slotBytes + sepTail
)

// node is a read view of one node page: it reads the header and the
// entries through the page on every access and holds no slice into the
// page, so a view stays valid across the page's mutations; nothing is
// decoded ahead of use.
type node struct {
	page *storage.Page
	leaf bool
	tail int            // bytes after the key in an entry
	data storage.FileID // the heap file RIDs point into (entries store page+slot)
}

func viewNode(p *storage.Page, data storage.FileID) (node, error) {
	if p.NumSlots() == 0 {
		return node{}, ErrCorruptNode
	}
	hdr := p.Record(0)
	if len(hdr) != hdrBytes {
		return node{}, ErrCorruptNode
	}
	n := node{page: p, leaf: hdr[0] == 1, tail: sepTail, data: data}
	if n.leaf {
		n.tail = ridBytes
	}
	return n, nil
}

// entryBytes is what an entry with klen key bytes adds to its node.
func entryBytes(leaf bool, klen int) int {
	if leaf {
		return leafEntryOverhead + klen
	}
	return sepEntryOverhead + klen
}

// bytes is the node's accounted size, nodeBaseBytes plus entryBytes of
// every entry — the quantity the split rule compares with the budget.
func (n *node) bytes() int { return n.page.Used() - (hdrBytes + slotBytes) + nodeBaseBytes }

func (n *node) hdr() []byte      { return n.page.Record(0) }
func (n *node) ent(i int) []byte { return n.page.Record(1 + i) }
func (n *node) numEnts() int     { return n.page.NumSlots() - 1 }

func (n *node) key(i int) []byte { return entKey(n.ent(i), n.tail) }

func (n *node) rid(i int) storage.RID { return entRID(n.ent(i), n.tail, n.data) }

// entKey and entRID split a raw entry with tail bytes after its key.
func entKey(e []byte, tail int) []byte { return e[:len(e)-tail] }

func entRID(e []byte, tail int, data storage.FileID) storage.RID {
	b := e[len(e)-tail:]
	return storage.RID{
		Page: storage.PageID{File: data, No: storage.PageNo(binary.BigEndian.Uint32(b))},
		Slot: binary.BigEndian.Uint16(b[4:]),
	}
}

// cmp orders entry i against the composite entry (k, r).
func (n *node) cmp(i int, k []byte, r storage.RID) int {
	if c := expr.CompareKeys(n.key(i), k); c != 0 {
		return c
	}
	return n.rid(i).Compare(r)
}

// next is a leaf's sibling link.
func (n *node) next() uint32 { return binary.BigEndian.Uint32(n.hdr()[1:]) }

// ref returns the child | count field of child i.
func (n *node) ref(i int) []byte {
	if i == 0 {
		return n.hdr()[1:]
	}
	return sepRef(n.ent(i - 1))
}

func (n *node) numChildren() int           { return n.numEnts() + 1 }
func (n *node) child(i int) storage.PageNo { return refChild(n.ref(i)) }
func (n *node) count(i int) int64          { return refCount(n.ref(i)) }

// setCount rewrites child i's count in place: one fixed-width field of
// a page the caller fetched dirty.
func (n *node) setCount(i int, c int64) { putRefCount(n.ref(i), c) }

// sepRef returns the child | count field that ends separator e.
func sepRef(e []byte) []byte { return e[len(e)-refBytes:] }

func refChild(ref []byte) storage.PageNo { return storage.PageNo(binary.BigEndian.Uint32(ref)) }
func refCount(ref []byte) int64          { return int64(binary.BigEndian.Uint64(ref[4:])) }
func putRefCount(ref []byte, c int64)    { binary.BigEndian.PutUint64(ref[4:], uint64(c)) }

// subtreeCount returns the number of entries under the node: for a leaf
// its own entries, for an internal node the sum of child counts.
func (n *node) subtreeCount() int64 {
	if n.leaf {
		return int64(n.numEnts())
	}
	var s int64
	for i := 0; i < n.numChildren(); i++ {
		s += n.count(i)
	}
	return s
}

// findChild returns the child of internal node n that may contain the
// composite entry (k, r): the number of separators <= (k, r).
func (n *node) findChild(k []byte, r storage.RID) int {
	lo, hi := 0, n.numEnts()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.cmp(mid, k, r) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the position of the first entry >= (k, r).
func (n *node) lowerBound(k []byte, r storage.RID) int {
	lo, hi := 0, n.numEnts()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.cmp(mid, k, r) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func appendRID(dst []byte, r storage.RID) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Page.No))
	return binary.BigEndian.AppendUint16(dst, r.Slot)
}

// appendRef appends a child | count field.
func appendRef(dst []byte, child storage.PageNo, count int64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(child))
	return binary.BigEndian.AppendUint64(dst, uint64(count))
}

// fillNode writes a node into the empty page p: the header, then the
// entries. New and splits build pages with it; no other mutation writes
// more than one entry.
func fillNode(p *storage.Page, leaf bool, link uint32, count0 int64, ents [][]byte) error {
	hdr := make([]byte, 1, hdrBytes)
	if leaf {
		hdr[0] = 1
	}
	if _, err := p.Insert(appendRef(hdr, storage.PageNo(link), count0)); err != nil {
		return err
	}
	_, n, err := p.InsertBatch(ents)
	if err == nil && n != len(ents) {
		err = storage.ErrPageFull
	}
	if err != nil {
		return fmt.Errorf("btree: node %d overflow: %w", p.ID.No, err)
	}
	return nil
}
