package btree

import (
	"fmt"

	"rdbdyn/internal/storage"
)

// Range partitioning for intra-query parallel index scans.
//
// PartitionRange splits a key range into leaf-aligned slices of
// near-equal entry count by ranked descent over the pseudo-ranked
// per-child counts — the same machinery CountRange and SampleRange use.
// Planning is accounting-free (loadPlanning), mirroring the readahead
// philosophy of BufferPool.Prefetch: coordination must not perturb the
// simulated cost model.
//
// The leaf alignment is what keeps parallel I/O attribution exactly
// equal to a sequential scan of the same range. A sequential cursor
// charges the descent (height pages, the last being the first leaf)
// plus one load per additional leaf: height + L - 1 charges in total.
// Partitioned, worker 0 opens with a normal tracked Seek (height
// charges, covering the shared descent) and each later worker opens
// directly on its first leaf for exactly one charge (SeekPartitionLeaf),
// so the workers together charge height + L0-1 + sum(Li) = height + L-1
// over the same multiset of pages. Had splits landed mid-leaf, the
// boundary leaf would be charged by two workers and the totals would
// drift.
//
// Interior partitions terminate by exact entry count (they own whole
// leaves, so the count runs out precisely at a leaf end and no extra
// page is touched — sequential iteration at that point simply hops into
// the next worker's first leaf). The last partition terminates on the
// range's upper bound exactly like a sequential cursor, including the
// look-ahead load of the first out-of-range leaf when the bound aligns
// with a leaf boundary.
//
// One known divergence: leaves emptied by lazy deletion that sit
// exactly at a partition boundary are hopped through (and charged) by a
// sequential scan but skipped by the partitioned one. Tables that have
// seen no deletions — all experiment workloads — cannot hit this.

// RangePartition describes one worker's slice of a partitioned range
// scan: the leaf page where the slice starts and the exact number of
// entries it owns. Partition 0 ignores Leaf and opens with a normal
// tracked Seek at the range's lower bound so the descent is charged
// once, as in a sequential scan.
type RangePartition struct {
	Leaf  storage.PageNo
	Count int64
}

// PartitionRange splits the key range [lo, hi) (nil = open) into up to
// n leaf-aligned partitions of near-equal entry count. It returns nil —
// no error — when the range does not split usefully (fewer than two
// partitions worth of leaves); callers then fall back to a sequential
// scan. Planning itself charges no I/O.
func (t *BTree) PartitionRange(lo, hi []byte, n int) ([]RangePartition, error) {
	if n < 2 {
		return nil, nil
	}
	rlo := int64(0)
	if lo != nil {
		r, err := t.rankOfKey(lo)
		if err != nil {
			return nil, err
		}
		rlo = r
	}
	rhi := t.len
	if hi != nil {
		r, err := t.rankOfKey(hi)
		if err != nil {
			return nil, err
		}
		rhi = r
	}
	total := rhi - rlo
	if total < int64(2*n) {
		return nil, nil
	}
	bounds := make([]int64, 0, n+1)        // partition boundary ranks
	leaves := make([]storage.PageNo, 0, n) // start leaf per partition (bounds[i] .. )
	bounds = append(bounds, rlo)
	leaves = append(leaves, 0) // partition 0 seeks lo; leaf unused
	for i := 1; i < n; i++ {
		target := rlo + int64(i)*total/int64(n)
		leaf, startRank, err := t.leafForRank(target)
		if err != nil {
			return nil, err
		}
		// Snap the split down to the containing leaf's first entry; skip
		// splits that collapse onto the range start or a previous split.
		if startRank <= bounds[len(bounds)-1] || startRank >= rhi {
			continue
		}
		bounds = append(bounds, startRank)
		leaves = append(leaves, leaf)
	}
	if len(bounds) < 2 {
		return nil, nil
	}
	bounds = append(bounds, rhi)
	parts := make([]RangePartition, len(leaves))
	for i := range parts {
		parts[i] = RangePartition{Leaf: leaves[i], Count: bounds[i+1] - bounds[i]}
	}
	return parts, nil
}

// SeekPartitionLeaf positions a cursor at the first entry of the given
// leaf with the usual exclusive upper key bound, charging exactly one
// page access (the starting leaf) to tr — the same single charge a
// sequential scan pays when it hops into that leaf.
func (t *BTree) SeekPartitionLeaf(no storage.PageNo, hi []byte, tr *storage.Tracker) (*Cursor, error) {
	n, err := t.load(no, tr)
	if err != nil {
		return nil, err
	}
	if !n.leaf {
		return nil, fmt.Errorf("btree: page %d is not a leaf", no)
	}
	c := &Cursor{tree: t, hi: hi, tr: tr}
	c.setLeaf(n, no)
	c.pos = 0
	return c, nil
}

// loadPlanning reads a node through the pool's uncounted path, touching
// no I/O accounting. Partition planning runs entirely through it.
func (t *BTree) loadPlanning(no storage.PageNo) (node, error) {
	p, err := t.pool.ReadUncounted(storage.PageID{File: t.file, No: no})
	if err != nil {
		return node{}, err
	}
	return viewNode(p, t.data)
}

// rankOfKey returns the number of entries whose composite (key, RID)
// orders before (k, zero RID) — the global rank of the first entry a
// Seek at k would deliver. Accounting-free.
func (t *BTree) rankOfKey(k []byte) (int64, error) {
	var acc int64
	no := t.root
	for {
		n, err := t.loadPlanning(no)
		if err != nil {
			return 0, err
		}
		if n.leaf {
			return acc + int64(n.lowerBound(k, storage.RID{})), nil
		}
		i := n.findChild(k, storage.RID{})
		for j := 0; j < i; j++ {
			acc += n.count(j)
		}
		no = n.child(i)
	}
}

// leafForRank descends to the leaf containing the entry at the given
// global rank and returns the leaf page plus the rank of the leaf's
// first entry. Accounting-free. rank must be in [0, t.len).
func (t *BTree) leafForRank(rank int64) (storage.PageNo, int64, error) {
	var acc int64
	no := t.root
	for {
		n, err := t.loadPlanning(no)
		if err != nil {
			return 0, 0, err
		}
		if n.leaf {
			return no, acc, nil
		}
		for j := 0; ; j++ {
			if rank < acc+n.count(j) || j == len(n.ents) {
				no = n.child(j)
				break
			}
			acc += n.count(j)
		}
	}
}
