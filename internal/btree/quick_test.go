package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// Property: insertion order never changes the scanned sequence — the
// tree is a canonical representation of its entry set.
func TestQuickInsertionOrderInvariance(t *testing.T) {
	f := func(vals []int16, seed int64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 300 {
			vals = vals[:300]
		}
		build := func(order []int16) []int64 {
			tr, _ := newTestTree(t, 256)
			for i, v := range order {
				if err := tr.Insert(intKey(int64(v)), ridFor(i)); err != nil {
					t.Fatal(err)
				}
			}
			return scanAll(t, tr)
		}
		a := build(vals)
		shuffled := append([]int16(nil), vals...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		// RIDs differ between permutations (position-derived), so only
		// the key sequences must agree.
		b := build(shuffled)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: CountRange always equals the brute-force count over the
// inserted multiset, for arbitrary inserts and bounds.
func TestQuickCountRangeMatchesBruteForce(t *testing.T) {
	f := func(vals []uint8, a, b uint8) bool {
		if len(vals) > 400 {
			vals = vals[:400]
		}
		tr, _ := newTestTree(t, 256)
		for i, v := range vals {
			if err := tr.Insert(intKey(int64(v)), ridFor(i)); err != nil {
				t.Fatal(err)
			}
		}
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		r := expr.Range{
			Lo: expr.Bound{Value: expr.Int(lo), Inclusive: true, Present: true},
			Hi: expr.Bound{Value: expr.Int(hi), Present: true},
		}
		kl, kh := r.EncodedBounds()
		got, err := tr.CountRange(kl, kh)
		if err != nil {
			return false
		}
		var want int64
		for _, v := range vals {
			if int64(v) >= lo && int64(v) < hi {
				want++
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the forward scan of a tree built from any multiset returns
// exactly the sorted multiset, and the reverse scan its mirror.
func TestQuickScanIsSortedMultiset(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) > 300 {
			vals = vals[:300]
		}
		tr, _ := newTestTree(t, 256)
		for i, v := range vals {
			if err := tr.Insert(intKey(int64(v)), ridFor(i)); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]int64, len(vals))
		for i, v := range vals {
			want[i] = int64(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := scanAll(t, tr)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Reverse mirrors forward.
		c, err := tr.SeekReverse(nil, nil)
		if err != nil {
			return false
		}
		for i := len(want) - 1; i >= 0; i-- {
			k, _, ok, err := c.Next()
			if err != nil || !ok {
				return false
			}
			row, err := expr.DecodeKey(k, []expr.Type{expr.TypeInt})
			if err != nil || row[0].I != want[i] {
				return false
			}
		}
		_, _, ok, _ := c.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a node page round-trips arbitrary leaf content.
func TestQuickNodeCodecRoundTrip(t *testing.T) {
	f := func(keys [][]byte, next uint32) bool {
		if len(keys) > 100 {
			keys = keys[:100]
		}
		var ents [][]byte
		rids := make([]storage.RID, len(keys))
		for i, k := range keys {
			if len(k) > 64 {
				k = k[:64]
			}
			keys[i] = k
			rids[i] = storage.RID{Page: storage.PageID{File: 2, No: storage.PageNo(i)}, Slot: uint16(i)}
			ents = append(ents, leafEnt(k, rids[i]))
		}
		p := storage.NewPage(storage.PageID{}, 16384)
		if err := fillNode(p, true, next, 0, ents); err != nil {
			return false
		}
		dec, err := viewNode(p, 2)
		if err != nil || !dec.leaf || dec.next() != next || dec.numEnts() != len(keys) {
			return false
		}
		want := nodeBaseBytes
		for i := range keys {
			if string(dec.key(i)) != string(keys[i]) || dec.rid(i) != rids[i] {
				return false
			}
			want += entryBytes(true, len(keys[i]))
		}
		return dec.bytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
