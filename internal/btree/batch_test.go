package btree

import (
	"math/rand"
	"testing"

	"rdbdyn/internal/storage"
)

// buildBatchTree builds a deterministic multi-leaf tree. Two fresh
// builds are structurally identical, so a per-entry run over one and a
// batched run over the other see identical pages in identical order —
// the basis for comparing tracker charges exactly.
func buildBatchTree(t testing.TB) (*BTree, *storage.BufferPool, int) {
	t.Helper()
	tr, bp := newTestTree(t, 256)
	vals := make([]int64, 600)
	for i := range vals {
		vals[i] = int64(i)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	insertInts(t, tr, vals)
	return tr, bp, len(vals)
}

type obs struct {
	key   string
	rid   storage.RID
	stats storage.IOStats // cumulative charges after this entry's batch
}

// collectPerEntry iterates with Next, grouping observations into
// pseudo-batches of size batch so the per-boundary stats snapshots line
// up with collectBatched's.
func collectPerEntry(t *testing.T, tr *BTree, lo, hi []byte, desc bool, batch int) []obs {
	t.Helper()
	trk := storage.NewTracker(nil)
	var next func() ([]byte, storage.RID, bool, error)
	if desc {
		c, err := tr.SeekReverseTracked(lo, hi, trk)
		if err != nil {
			t.Fatal(err)
		}
		next = c.Next
	} else {
		c, err := tr.SeekTracked(lo, hi, trk)
		if err != nil {
			t.Fatal(err)
		}
		next = c.Next
	}
	var out []obs
	for {
		k, r, ok, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, obs{key: string(k), rid: r})
	}
	// Per-entry charge timing is interior to a batch; only boundary
	// totals are contractual. Final totals must match regardless.
	for i := range out {
		out[i].stats = trk.Stats()
	}
	return out
}

func collectBatched(t *testing.T, tr *BTree, lo, hi []byte, desc bool, batch int) ([]obs, storage.IOStats) {
	t.Helper()
	trk := storage.NewTracker(nil)
	var nb func([]Entry) (int, error)
	if desc {
		c, err := tr.SeekReverseTracked(lo, hi, trk)
		if err != nil {
			t.Fatal(err)
		}
		nb = c.NextBatch
	} else {
		c, err := tr.SeekTracked(lo, hi, trk)
		if err != nil {
			t.Fatal(err)
		}
		nb = c.NextBatch
	}
	dst := make([]Entry, batch)
	var out []obs
	for {
		n, err := nb(dst)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		s := trk.Stats()
		for _, e := range dst[:n] {
			out = append(out, obs{key: string(e.Key), rid: e.RID, stats: s})
		}
	}
	return out, trk.Stats()
}

// TestNextBatchEquivalence: batched iteration yields the identical
// (key, RID) sequence as per-entry iteration, and the identical total
// tracker charges, for forward and reverse cursors, bounded and
// unbounded ranges, and dst sizes from 1 to beyond a leaf.
func TestNextBatchEquivalence(t *testing.T) {
	bounds := []struct {
		name   string
		lo, hi []byte
	}{
		{"full", nil, nil},
		{"bounded", intKey(37), intKey(491)},
		{"lowOnly", intKey(100), nil},
		{"hiInsideLeaf", nil, intKey(313)},
		{"empty", intKey(900), intKey(950)},
	}
	for _, desc := range []bool{false, true} {
		for _, b := range bounds {
			for _, batch := range []int{1, 3, 7, 64, 1024} {
				tr1, _, _ := buildBatchTree(t)
				want := collectPerEntry(t, tr1, b.lo, b.hi, desc, batch)

				tr2, bp2, _ := buildBatchTree(t)
				got, total := collectBatched(t, tr2, b.lo, b.hi, desc, batch)

				if len(got) != len(want) {
					t.Fatalf("desc=%v %s batch=%d: %d entries, want %d", desc, b.name, batch, len(got), len(want))
				}
				for i := range want {
					if got[i].key != want[i].key || got[i].rid != want[i].rid {
						t.Fatalf("desc=%v %s batch=%d: entry %d = (%x,%v), want (%x,%v)",
							desc, b.name, batch, i, got[i].key, got[i].rid, want[i].key, want[i].rid)
					}
				}
				if len(want) > 0 {
					if w, g := want[len(want)-1].stats, total; w != g {
						t.Fatalf("desc=%v %s batch=%d: total charges %v, want %v", desc, b.name, batch, g, w)
					}
				}
				if bp2.PinnedPages() != 0 {
					t.Fatalf("desc=%v %s batch=%d: %d pages still pinned after exhaustion", desc, b.name, batch, bp2.PinnedPages())
				}
			}
		}
	}
}

// TestNextBatchInterleavesWithNext: mixing Next and NextBatch on one
// cursor walks the same sequence as Next alone.
func TestNextBatchInterleavesWithNext(t *testing.T) {
	tr1, _, _ := buildBatchTree(t)
	want := collectPerEntry(t, tr1, nil, intKey(400), false, 1)

	tr2, _, _ := buildBatchTree(t)
	c, err := tr2.Seek(nil, intKey(400))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Entry, 5)
	var got []obs
	for turn := 0; ; turn++ {
		if turn%2 == 0 {
			k, r, ok, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, obs{key: string(k), rid: r})
		} else {
			n, err := c.NextBatch(dst)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for _, e := range dst[:n] {
				got = append(got, obs{key: string(e.Key), rid: e.RID})
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("interleaved: %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].key != want[i].key || got[i].rid != want[i].rid {
			t.Fatalf("interleaved: entry %d differs", i)
		}
	}
}

// TestCursorCloseIdempotent: Close may be called at any point in the
// cursor's life, repeatedly, without unpinning pages it no longer holds.
func TestCursorCloseIdempotent(t *testing.T) {
	tr, bp, _ := buildBatchTree(t)

	// Mid-iteration close, twice.
	c, err := tr.Seek(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := c.Next(); !ok {
		t.Fatal("tree empty")
	}
	c.Close()
	c.Close()
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pinned after double Close", bp.PinnedPages())
	}

	// Close after exhaustion.
	c2, err := tr.Seek(intKey(595), nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, ok, err := c2.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	c2.Close()
	c2.Close()
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pinned after exhausted Close", bp.PinnedPages())
	}
	if n, err := c2.NextBatch(make([]Entry, 4)); n != 0 || err != nil {
		t.Fatalf("NextBatch after Close = %d, %v", n, err)
	}

	// Reverse: same contract.
	r, err := tr.SeekReverse(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := r.Next(); !ok {
		t.Fatal("reverse empty")
	}
	r.Close()
	r.Close()
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pinned after reverse double Close", bp.PinnedPages())
	}
	if n, err := r.NextBatch(make([]Entry, 4)); n != 0 || err != nil {
		t.Fatalf("reverse NextBatch after Close = %d, %v", n, err)
	}
}

// TestNextRIDsMatchesNextBatch: NextRIDs is NextBatch without the keys —
// over the same ranges and dst sizes it returns the same RIDs in calls
// of the same sizes, with equal tracker stats after every call, and
// holds no pin after exhaustion or Close.
func TestNextRIDsMatchesNextBatch(t *testing.T) {
	bounds := []struct {
		name   string
		lo, hi []byte
	}{
		{"open", nil, nil},
		{"lowOnly", intKey(100), nil},
		{"hiInsideLeaf", nil, intKey(313)},
		{"crossesLeaves", intKey(37), intKey(491)},
		{"empty", intKey(900), intKey(950)},
	}
	for _, b := range bounds {
		for _, batch := range []int{1, 7, 64, 1024} {
			tr1, bp1, _ := buildBatchTree(t)
			trk1 := storage.NewTracker(nil)
			c1, err := tr1.SeekTracked(b.lo, b.hi, trk1)
			if err != nil {
				t.Fatal(err)
			}
			tr2, bp2, _ := buildBatchTree(t)
			trk2 := storage.NewTracker(nil)
			c2, err := tr2.SeekTracked(b.lo, b.hi, trk2)
			if err != nil {
				t.Fatal(err)
			}
			entries, rids := make([]Entry, batch), make([]storage.RID, batch)
			total := 0
			for call := 0; ; call++ {
				n1, err1 := c1.NextBatch(entries)
				n2, err2 := c2.NextRIDs(rids)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if n1 != n2 {
					t.Fatalf("%s batch=%d call %d: NextRIDs gave %d, NextBatch %d", b.name, batch, call, n2, n1)
				}
				for i := range n1 {
					if rids[i] != entries[i].RID {
						t.Fatalf("%s batch=%d call %d: rid %d = %v, want %v", b.name, batch, call, i, rids[i], entries[i].RID)
					}
				}
				if s1, s2 := trk1.Stats(), trk2.Stats(); s1 != s2 {
					t.Fatalf("%s batch=%d call %d: NextRIDs charges %v, NextBatch %v", b.name, batch, call, s2, s1)
				}
				if n1 == 0 {
					break
				}
				total += n1
			}
			if b.name != "empty" && total == 0 {
				t.Fatalf("%s: no entries in range", b.name)
			}
			if bp1.PinnedPages() != 0 || bp2.PinnedPages() != 0 {
				t.Fatalf("%s batch=%d: %d/%d pages pinned after exhaustion", b.name, batch, bp1.PinnedPages(), bp2.PinnedPages())
			}
		}
	}

	// Abandoned mid-range, the cursor's pin goes with Close.
	tr, bp, _ := buildBatchTree(t)
	c, err := tr.Seek(intKey(37), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.NextRIDs(make([]storage.RID, 3)); n != 3 || err != nil {
		t.Fatal(n, err)
	}
	if bp.PinnedPages() != 1 {
		t.Fatalf("%d pages pinned mid-range, want 1", bp.PinnedPages())
	}
	c.Close()
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pages pinned after Close", bp.PinnedPages())
	}
	if n, err := c.NextRIDs(make([]storage.RID, 3)); n != 0 || err != nil {
		t.Fatalf("NextRIDs after Close = %d, %v", n, err)
	}
}
