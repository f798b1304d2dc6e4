package btree

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// raceEnabled is set by raceon_test.go when the race detector is on.
var raceEnabled bool

type modelEntry struct {
	key []byte
	rid storage.RID
}

func cmpModel(a, b modelEntry) int {
	if c := expr.CompareKeys(a.key, b.key); c != 0 {
		return c
	}
	return a.rid.Compare(b.rid)
}

// drainForward reads c to exhaustion through NextBatch, copying the
// keys: they are only valid until the next batch.
func drainForward(t *testing.T, c *Cursor) []modelEntry {
	t.Helper()
	defer c.Close()
	var out []modelEntry
	batch := make([]Entry, 7)
	for {
		n, err := c.NextBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		for _, e := range batch[:n] {
			out = append(out, modelEntry{bytes.Clone(e.Key), e.RID})
		}
	}
}

func sameEntries(t *testing.T, what string, got, want []modelEntry) {
	t.Helper()
	if !slices.EqualFunc(got, want, func(a, b modelEntry) bool { return cmpModel(a, b) == 0 }) {
		t.Fatalf("%s: %d entries, model has %d (or they differ)", what, len(got), len(want))
	}
}

// checkNodes walks the whole tree: every node's entries are sorted, its
// accounted size equals a recount from its page and respects the budget,
// and every child count equals what the child holds.
func checkNodes(t *testing.T, tr *BTree, no storage.PageNo, level int) int64 {
	t.Helper()
	n, err := tr.load(no, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.leaf != (level == 1) {
		t.Fatalf("node %d at level %d: leaf=%v", no, level, n.leaf)
	}
	recount := nodeBaseBytes
	for i := range n.ents {
		recount += entryBytes(n.leaf, len(n.key(i)))
		if i > 0 && n.cmp(i-1, n.key(i), n.rid(i)) > 0 {
			t.Fatalf("node %d: entries %d and %d out of order", no, i-1, i)
		}
	}
	if n.bytes() != recount || recount > tr.budget {
		t.Fatalf("node %d: accounted %d bytes, recount %d, budget %d", no, n.bytes(), recount, tr.budget)
	}
	if n.leaf {
		return int64(len(n.ents))
	}
	var total int64
	for i := 0; i < n.numChildren(); i++ {
		under := checkNodes(t, tr, n.child(i), level-1)
		if n.count(i) != under {
			t.Fatalf("node %d: child %d counted %d, holds %d", no, i, n.count(i), under)
		}
		total += under
	}
	return total
}

// TestModelEveryOperation runs seeded random insert / delete /
// duplicate-key sequences against a sorted slice and, after every
// operation, checks every way of reading the tree against it.
func TestModelEveryOperation(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr, pool := newTestTree(t, 256)
		rng := rand.New(rand.NewSource(seed))
		var model []modelEntry
		randKey := func() []byte {
			if rng.Intn(3) == 0 {
				return expr.EncodeKey(nil, expr.Str(strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(30))))
			}
			return intKey(rng.Int63n(60)) // few values: long duplicate runs
		}
		for op := 0; op < 700; op++ {
			if len(model) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(model))
				if ok, err := tr.Delete(model[i].key, model[i].rid); err != nil || !ok {
					t.Fatalf("seed %d op %d: delete of a live entry: %v %v", seed, op, ok, err)
				}
				model = slices.Delete(model, i, i+1)
			} else {
				e := modelEntry{randKey(), ridFor(rng.Intn(5000))}
				at, dup := slices.BinarySearchFunc(model, e, cmpModel)
				if dup {
					continue // indexes never hold the same (key, rid) twice
				}
				if err := tr.Insert(e.key, e.rid); err != nil {
					t.Fatal(err)
				}
				model = slices.Insert(model, at, e)
			}
			if tr.Len() != int64(len(model)) {
				t.Fatalf("seed %d op %d: Len %d, model %d", seed, op, tr.Len(), len(model))
			}
			if got := checkNodes(t, tr, tr.root, tr.height); got != tr.Len() {
				t.Fatalf("seed %d op %d: nodes hold %d entries, Len %d", seed, op, got, tr.Len())
			}
			// A random key range [lo, hi), open on either side now and then.
			var lo, hi []byte
			from, to := 0, len(model)
			if rng.Intn(4) > 0 {
				lo = randKey()
				from, _ = slices.BinarySearchFunc(model, modelEntry{key: lo}, cmpModel)
			}
			if rng.Intn(4) > 0 {
				hi = randKey()
				to, _ = slices.BinarySearchFunc(model, modelEntry{key: hi}, cmpModel)
			}
			want := model[from:max(from, to)]

			c, err := tr.Seek(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, "forward scan", drainForward(t, c), want)

			rc, err := tr.SeekReverse(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			var back []modelEntry
			for {
				k, r, ok, err := rc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				back = append(back, modelEntry{bytes.Clone(k), r})
			}
			slices.Reverse(back)
			sameEntries(t, "reverse scan", back, want)

			if n, err := tr.CountRange(lo, hi); err != nil || n != int64(len(want)) {
				t.Fatalf("seed %d op %d: CountRange %d (%v), model %d", seed, op, n, err, len(want))
			}
			if lo != nil {
				if r, err := tr.Rank(lo); err != nil || r != int64(from) {
					t.Fatalf("seed %d op %d: Rank %d (%v), model %d", seed, op, r, err, from)
				}
			}
			if len(model) > 0 {
				i := rng.Intn(len(model))
				k, r, err := tr.EntryAt(int64(i))
				if err != nil || cmpModel(modelEntry{k, r}, model[i]) != 0 {
					t.Fatalf("seed %d op %d: EntryAt(%d) differs from the model (%v)", seed, op, i, err)
				}
				if ok, err := tr.Contains(model[i].key, model[i].rid); err != nil || !ok {
					t.Fatalf("seed %d op %d: Contains misses a live entry (%v)", seed, op, err)
				}
			}
			probe := modelEntry{randKey(), ridFor(rng.Intn(5000))}
			_, live := slices.BinarySearchFunc(model, probe, cmpModel)
			if ok, err := tr.Contains(probe.key, probe.rid); err != nil || ok != live {
				t.Fatalf("seed %d op %d: Contains = %v, model %v (%v)", seed, op, ok, live, err)
			}
			if p := pool.PinnedPages(); p != 0 {
				t.Fatalf("seed %d op %d: %d pins left", seed, op, p)
			}
		}
		if tr.Height() < 3 {
			t.Fatalf("seed %d: height %d, the sequence never split an internal node", seed, tr.Height())
		}
	}
}

// TestAllocsInsertNoSplit: an insert that splits nothing writes one slot
// of the leaf and one count field per ancestor, so it allocates the
// entry's few bytes — not a re-encoded page per level.
func TestAllocsInsertNoSplit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr, _ := newTestTree(t, 8192)
	const n = 20000
	for i := 0; i < n; i++ { // ascending: every leaf but the last is left half full
		if err := tr.Insert(intKey(int64(2*i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() != 2 {
		t.Fatalf("height %d, want a two-level tree", tr.Height())
	}
	keys := make([][]byte, 500) // odd keys, spread over the leaves
	for i := range keys {
		keys[i] = intKey(int64(2*(i*97%n) + 1))
	}
	nodes, i := tr.NumNodes(), 0
	insert := func() {
		if err := tr.Insert(keys[i], ridFor(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	allocs := testing.AllocsPerRun(200, insert)
	if tr.NumNodes() != nodes {
		t.Fatal("an insert split a node; the measurement is not of the non-splitting path")
	}
	if allocs > 2 {
		t.Fatalf("non-splitting insert: %v allocations, want the entry and at most a slot-directory growth", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for j := 0; j < 200; j++ {
		insert()
	}
	runtime.ReadMemStats(&after)
	if tr.NumNodes() != nodes {
		t.Fatal("an insert split a node; the measurement is not of the non-splitting path")
	}
	bytesPerInsert := (after.TotalAlloc - before.TotalAlloc) / 200
	if bytesPerInsert > 1024 {
		t.Fatalf("non-splitting insert: %d bytes allocated, want no page-sized allocation", bytesPerInsert)
	}
}
