package btree

import (
	"math"
	"math/rand"

	"rdbdyn/internal/storage"
)

// Estimate is the result of the Section 5 "descent to split node"
// range estimator.
type Estimate struct {
	// RIDs is the estimated number of entries in the range.
	RIDs float64
	// SplitLevel is the level of the split node (1 = leaf). When the
	// descent reached a leaf the estimate is exact.
	SplitLevel int
	// Exact is true when the descent reached a leaf, so RIDs is an
	// exact count rather than an extrapolation.
	Exact bool
	// K is the paper's k: matching entries at a leaf, or spanned
	// children minus one at an internal split node.
	K int
}

// EstimateRange implements the paper's descent-to-split-node method.
// The tree is descended along the unique path of nodes whose branches
// contain the whole range [lo, hi); the first node where the range
// spans k+1 >= 2 children is the split node at level l, and the
// estimate is k * f^(l-1), counting the two edge children as one
// full child between them.
//
// This implementation refines the single average fanout f of the paper
// by using the measured average leaf occupancy for the last level and
// the measured average internal fanout for the levels above, which is
// the same formula when the two coincide.
//
// Bounds are encoded keys: lo inclusive, hi exclusive, nil = unbounded.
// The descent costs O(height) page accesses, charged to the pool — the
// "inexpensive estimates" of the paper's initial stage.
func (t *BTree) EstimateRange(lo, hi []byte) (Estimate, error) {
	no := t.root
	level := t.height
	for {
		n, err := t.load(no, nil)
		if err != nil {
			return Estimate{}, err
		}
		if n.leaf {
			k := leafRangeCount(n, lo, hi)
			return Estimate{RIDs: float64(k), SplitLevel: 1, Exact: true, K: k}, nil
		}
		iLo := 0
		if lo != nil {
			iLo = n.findChild(lo, storage.RID{})
		}
		iHi := n.numEnts()
		if hi != nil {
			iHi = n.findChild(hi, storage.RID{})
		}
		if iLo > iHi {
			// Degenerate: empty range between separators.
			return Estimate{RIDs: 0, SplitLevel: level, Exact: false, K: 0}, nil
		}
		if iLo == iHi {
			no = n.child(iLo)
			level--
			continue
		}
		// Split node found at this level: the range spans children
		// iLo..iHi, i.e. k+1 children with k = iHi-iLo. Per the paper,
		// the two edge children are assumed half-covered and counted
		// as one between them; an unbounded side means its edge child
		// is fully covered, so it counts as a whole child.
		k := iHi - iLo
		left, right := 0.5, 0.5
		if lo == nil {
			left = 1
		}
		if hi == nil {
			right = 1
		}
		kEff := float64(k-1) + left + right
		return Estimate{
			RIDs:       kEff * t.subtreeSizeEstimate(level-1),
			SplitLevel: level,
			Exact:      false,
			K:          k,
		}, nil
	}
}

// EstimateRangeRefined extends the descent-to-split-node method by
// recursively refining the two edge children of the split node instead
// of assuming them half-covered: the interior children count as full
// subtrees and each edge child is estimated by a further descent with
// the one bound that cuts through it. This is the precision upgrade the
// paper attributes to "random sampling on range children of a split
// node", obtained here deterministically; it costs O(2*height) page
// accesses instead of O(height).
// The returned exact flag is true when no extrapolation happened: the
// whole range was resolved by leaf counts (at most two leaves), so the
// estimate is a true count.
func (t *BTree) EstimateRangeRefined(lo, hi []byte) (rids float64, exact bool, err error) {
	return t.refineAt(t.root, t.height, lo, hi, nil)
}

// EstimateRangeRefinedTracked is EstimateRangeRefined charging the
// descents to tr, so a query's planning I/O is attributed to that query.
func (t *BTree) EstimateRangeRefinedTracked(lo, hi []byte, tr *storage.Tracker) (rids float64, exact bool, err error) {
	return t.refineAt(t.root, t.height, lo, hi, tr)
}

func (t *BTree) refineAt(no storage.PageNo, level int, lo, hi []byte, tr *storage.Tracker) (float64, bool, error) {
	for {
		n, err := t.load(no, tr)
		if err != nil {
			return 0, false, err
		}
		if n.leaf {
			return float64(leafRangeCount(n, lo, hi)), true, nil
		}
		iLo := 0
		if lo != nil {
			iLo = n.findChild(lo, storage.RID{})
		}
		iHi := n.numEnts()
		if hi != nil {
			iHi = n.findChild(hi, storage.RID{})
		}
		if iLo > iHi {
			return 0, true, nil
		}
		if iLo == iHi {
			no = n.child(iLo)
			level--
			continue
		}
		// Interior children are fully covered: extrapolate their sizes
		// from average occupancy (this keeps the method an estimate —
		// the tree is used as a histogram, not as an exact counter).
		interior := iHi - iLo - 1
		est := float64(interior) * t.subtreeSizeEstimate(level-1)
		left, lx, err := t.refineAt(n.child(iLo), level-1, lo, nil, tr)
		if err != nil {
			return 0, false, err
		}
		right, rx, err := t.refineAt(n.child(iHi), level-1, nil, hi, tr)
		if err != nil {
			return 0, false, err
		}
		return est + left + right, interior == 0 && lx && rx, nil
	}
}

// subtreeSizeEstimate returns the estimated entry count of a subtree
// rooted at the given level (leaf = level 1), using measured average
// occupancies: leafEntries * internalFanout^(level-1).
func (t *BTree) subtreeSizeEstimate(level int) float64 {
	if level <= 0 {
		return 1
	}
	est := t.AvgLeafEntries()
	if est == 0 {
		est = 1
	}
	if level > 1 {
		f := t.AvgInternalFanout()
		if f < 2 {
			f = 2
		}
		est *= math.Pow(f, float64(level-1))
	}
	return est
}

// leafRangeCount counts entries within bounds inside one leaf.
func leafRangeCount(n node, lo, hi []byte) int {
	start := 0
	if lo != nil {
		start = n.lowerBound(lo, storage.RID{})
	}
	end := n.numEnts()
	if hi != nil {
		end = n.lowerBound(hi, storage.RID{})
	}
	if end < start {
		return 0
	}
	return end - start
}

// Rank returns the number of entries with key < k (k nil = all entries,
// returning Len). Cost: one O(height) descent.
func (t *BTree) Rank(k []byte) (int64, error) {
	if k == nil {
		return t.len, nil
	}
	var rank int64
	no := t.root
	for {
		n, err := t.load(no, nil)
		if err != nil {
			return 0, err
		}
		if n.leaf {
			return rank + int64(n.lowerBound(k, storage.RID{})), nil
		}
		i := n.findChild(k, storage.RID{})
		for j := 0; j < i; j++ {
			rank += n.count(j)
		}
		no = n.child(i)
	}
}

// CountRange returns the exact number of entries in [lo, hi) using the
// per-child subtree counts: two ranked descents.
func (t *BTree) CountRange(lo, hi []byte) (int64, error) {
	var loRank int64
	if lo != nil {
		r, err := t.Rank(lo)
		if err != nil {
			return 0, err
		}
		loRank = r
	}
	hiRank := t.len
	if hi != nil {
		r, err := t.Rank(hi)
		if err != nil {
			return 0, err
		}
		hiRank = r
	}
	if hiRank < loRank {
		return 0, nil
	}
	return hiRank - loRank, nil
}

// EntryAt returns the entry with the given rank (0-based) in composite
// order. It is the primitive of ranked ("pseudo-ranked B+-tree")
// sampling.
func (t *BTree) EntryAt(rank int64) (key []byte, rid storage.RID, err error) {
	no := t.root
	for {
		n, err := t.load(no, nil)
		if err != nil {
			return nil, storage.RID{}, err
		}
		if n.leaf {
			if rank < 0 || rank >= int64(n.numEnts()) {
				return nil, storage.RID{}, ErrCorruptNode
			}
			return n.key(int(rank)), n.rid(int(rank)), nil
		}
		i := 0
		for i < n.numEnts() && rank >= n.count(i) {
			rank -= n.count(i)
			i++
		}
		no = n.child(i)
	}
}

// SampleRange draws up to max uniform random entries (with replacement)
// from the range [lo, hi) by ranked descent — the behaviour of the
// [Ant92] sampler the paper's initial stage relies on. It returns the
// sampled keys and RIDs and the exact range count it computed on the
// way. Each sample costs O(height) page accesses.
func (t *BTree) SampleRange(rng *rand.Rand, lo, hi []byte, max int) (keys [][]byte, rids []storage.RID, count int64, err error) {
	var loRank int64
	if lo != nil {
		if loRank, err = t.Rank(lo); err != nil {
			return nil, nil, 0, err
		}
	}
	hiRank := t.len
	if hi != nil {
		if hiRank, err = t.Rank(hi); err != nil {
			return nil, nil, 0, err
		}
	}
	count = hiRank - loRank
	if count <= 0 {
		return nil, nil, 0, nil
	}
	for i := 0; i < max; i++ {
		r := loRank + rng.Int63n(count)
		k, rid, err := t.EntryAt(r)
		if err != nil {
			return nil, nil, 0, err
		}
		keys = append(keys, k)
		rids = append(rids, rid)
	}
	return keys, rids, count, nil
}

// SampleAcceptReject draws one uniform random entry from the whole tree
// with the acceptance/rejection method of [OlRo89]: descend picking a
// uniform child at each level, accept the final entry with probability
// prod(fanout_i) / prod(maxFanout). It returns ok=false on rejection;
// attempts gives the number of node visits, so experiments can compare
// its cost against ranked sampling.
func (t *BTree) SampleAcceptReject(rng *rand.Rand, maxFanout int) (key []byte, rid storage.RID, ok bool, visits int, err error) {
	if t.len == 0 {
		return nil, storage.RID{}, false, 0, nil
	}
	accept := 1.0
	no := t.root
	for {
		n, err := t.load(no, nil)
		if err != nil {
			return nil, storage.RID{}, false, visits, err
		}
		visits++
		if n.leaf {
			if n.numEnts() == 0 {
				return nil, storage.RID{}, false, visits, nil
			}
			i := rng.Intn(n.numEnts())
			accept *= float64(n.numEnts()) / float64(maxFanout)
			if rng.Float64() >= accept {
				return nil, storage.RID{}, false, visits, nil
			}
			return n.key(i), n.rid(i), true, visits, nil
		}
		i := rng.Intn(n.numChildren())
		accept *= float64(n.numChildren()) / float64(maxFanout)
		no = n.child(i)
	}
}

// MaxFanout returns an upper bound on node fanout for the
// acceptance/rejection sampler, derived from the page budget and the
// smallest possible entry size.
func (t *BTree) MaxFanout() int {
	f := t.budget / leafEntryOverhead
	if f < 2 {
		f = 2
	}
	return f
}
