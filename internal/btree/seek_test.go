package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// buildDupTree builds a tree of three key values, 400 entries each,
// inserted in an order shuffled by seed on small pages (so leaves split
// mid-run), with every seventh insert deleted again. Two builds from one
// seed are structurally identical, so their tracker charges compare
// exactly.
func buildDupTree(t testing.TB, seed int64) (*BTree, *storage.BufferPool) {
	t.Helper()
	tr, bp := newTestTree(t, 256)
	order := rand.New(rand.NewSource(seed)).Perm(1200)
	for _, i := range order {
		if err := tr.Insert(intKey(int64(1+i%3)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < len(order); j += 7 {
		i := order[j]
		if ok, err := tr.Delete(intKey(int64(1+i%3)), ridFor(i)); !ok || err != nil {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	return tr, bp
}

// pointRange is the bounds of the one key value v.
func pointRange(v int64) (lo, hi []byte) { return intKey(v), expr.KeySuccessor(intKey(v)) }

// rangeRIDs returns every RID in [lo, hi), read with NextRIDs.
func rangeRIDs(t *testing.T, tr *BTree, lo, hi []byte) []storage.RID {
	t.Helper()
	c, err := tr.Seek(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var out []storage.RID
	buf := make([]storage.RID, 64)
	for {
		n, err := c.NextRIDs(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// sortedFilter returns the filter of an in-memory list of rids, appended
// in shuffled order, and the sorted keys it filters as.
func sortedFilter(t *testing.T, rids []storage.RID, seed int64) (rid.Filter, []uint64) {
	t.Helper()
	rids = slices.Clone(rids)
	rand.New(rand.NewSource(seed)).Shuffle(len(rids), func(i, j int) { rids[i], rids[j] = rids[j], rids[i] })
	c := rid.NewContainer(storage.NewBufferPool(storage.NewDisk(4096), 0), rid.DefaultConfig())
	if err := c.AppendBatch(rids); err != nil {
		t.Fatal(err)
	}
	f := c.Filter()
	keys, ok := rid.SortedKeys(f)
	if !ok {
		t.Fatalf("a %d-RID list filters as %T, not as sorted keys", len(rids), f)
	}
	return f, keys
}

// TestNextRIDsInMatchesNextRIDs: over each key value of a tree with
// duplicates, deletions and leaf splits, the seeking read through a
// list's sorted keys is NextRIDs followed by the list's filter — the
// same n and the same kept RIDs in every call, at every dst size, with
// equal tracker stats after every call — for lists empty, denser than
// the range, sparse, and partly outside it; it holds no pin after
// exhaustion or Close.
func TestNextRIDsInMatchesNextRIDs(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { seekMatchesWalk(t, seed) })
	}

	// Abandoned mid-range, the cursor's pin goes with Close.
	tr, bp := buildDupTree(t, 11)
	lo, hi := pointRange(2)
	_, keys := sortedFilter(t, rangeRIDs(t, tr, lo, hi), 1)
	c, err := tr.Seek(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if n, kept, err := c.NextRIDsIn(keys, make([]storage.RID, 3)); n == 0 || len(kept) != n || c.Done() || err != nil {
		t.Fatal(n, kept, c.Done(), err)
	}
	if bp.PinnedPages() != 1 {
		t.Fatalf("%d pages pinned mid-range, want 1", bp.PinnedPages())
	}
	c.Close()
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pages pinned after Close", bp.PinnedPages())
	}
	if n, _, err := c.NextRIDsIn(keys, make([]storage.RID, 3)); n != 0 || err != nil {
		t.Fatalf("NextRIDsIn after Close = %d, %v", n, err)
	}
}

// seekMatchesWalk checks TestNextRIDsInMatchesNextRIDs's property on
// the tree one seed builds.
func seekMatchesWalk(t *testing.T, seed int64) {
	tr, _ := buildDupTree(t, seed)
	data := tr.data
	rng := rand.New(rand.NewSource(seed))
	for v := int64(1); v <= 3; v++ {
		lo, hi := pointRange(v)
		leg := rangeRIDs(t, tr, lo, hi)
		others := append(rangeRIDs(t, tr, nil, lo), rangeRIDs(t, tr, hi, nil)...)
		var absent, outside []storage.RID
		for i := 0; i < 600; i++ {
			absent = append(absent, storage.RID{Page: storage.PageID{File: data, No: storage.PageNo(rng.Intn(40))}, Slot: uint16(50 + rng.Intn(50))})
		}
		outside = append(outside, storage.RID{Page: storage.PageID{File: data + 1, No: 3}, Slot: 1}, storage.RID{Page: storage.PageID{File: data, No: 1000}})
		for i := 0; i < len(others); i += 3 {
			outside = append(outside, others[i])
		}
		var sparse, half []storage.RID
		for i, r := range leg {
			if i%37 == 5 {
				sparse = append(sparse, r)
			}
			if rng.Intn(2) == 0 {
				half = append(half, r)
			}
			if i%5 == 0 {
				outside = append(outside, r)
			}
		}
		lists := []struct {
			name string
			rids []storage.RID
		}{
			{"empty", nil},
			{"dense", append(slices.Clone(leg), absent...)},
			{"sparse", sparse},
			{"half", half},
			{"outside", outside},
		}
		for _, l := range lists {
			filter, keys := sortedFilter(t, l.rids, v)
			for _, max := range []int{1, 7, 128, 1024} {
				tr1, bp1 := buildDupTree(t, seed)
				trk1 := storage.NewTracker(nil)
				c1, err := tr1.SeekTracked(lo, hi, trk1)
				if err != nil {
					t.Fatal(err)
				}
				tr2, bp2 := buildDupTree(t, seed)
				trk2 := storage.NewTracker(nil)
				c2, err := tr2.SeekTracked(lo, hi, trk2)
				if err != nil {
					t.Fatal(err)
				}
				dst1, dst2, keep := make([]storage.RID, max), make([]storage.RID, max), make([]bool, max)
				total := 0
				for call := 0; ; call++ {
					n1, kept, err1 := c1.NextRIDsIn(keys, dst1)
					n2, err2 := c2.NextRIDs(dst2)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					filter.FilterBatch(dst2[:n2], keep)
					var want []storage.RID
					for i, r := range dst2[:n2] {
						if keep[i] {
							want = append(want, r)
						}
					}
					if n1 != n2 || !slices.Equal(kept, want) {
						t.Fatalf("key %d %s max=%d call %d: seeking read gave n=%d kept %v, NextRIDs+filter n=%d kept %v", v, l.name, max, call, n1, kept, n2, want)
					}
					if s1, s2 := trk1.Stats(), trk2.Stats(); s1 != s2 {
						t.Fatalf("key %d %s max=%d call %d: seeking read charges %v, NextRIDs %v", v, l.name, max, call, s1, s2)
					}
					if n1 == 0 {
						break
					}
					total += n1
				}
				if total != len(leg) {
					t.Fatalf("key %d %s max=%d: %d entries claimed, want %d", v, l.name, max, total, len(leg))
				}
				if bp1.PinnedPages() != 0 || bp2.PinnedPages() != 0 {
					t.Fatalf("key %d %s max=%d: %d/%d pages pinned after exhaustion", v, l.name, max, bp1.PinnedPages(), bp2.PinnedPages())
				}
			}
		}
	}
}

// TestAllocsNextRIDsIn: a warm seeking read allocates nothing — it
// writes its kept RIDs into dst and reads the leaf in place.
func TestAllocsNextRIDsIn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr, _ := buildDupTree(t, 11)
	lo, hi := pointRange(2)
	leg := rangeRIDs(t, tr, lo, hi)
	var half []storage.RID
	for i := 0; i < len(leg); i += 2 {
		half = append(half, leg[i])
	}
	_, keys := sortedFilter(t, half, 1)
	cursors := make([]*Cursor, 21) // AllocsPerRun's warm-up call and its 20 runs
	for i := range cursors {
		c, err := tr.Seek(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		cursors[i] = c
	}
	dst, next := make([]storage.RID, 16), 0
	allocs := testing.AllocsPerRun(20, func() {
		c := cursors[next]
		next++
		for {
			n, _, err := c.NextRIDsIn(keys, dst)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a drained seeking read: %v allocations, want none", allocs)
	}
}
