package rid

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rdbdyn/internal/storage"
)

// ridMix turns raw fuzz words into RIDs spanning several files and
// pages, with slot distributions that exercise both sparse (array) and
// dense (bitset) chunk representations: a low bit selects between a
// narrow slot range (clusters many RIDs on one page, crossing the
// array→bitset threshold) and a wide spread.
func ridMix(words []uint32) []storage.RID {
	rids := make([]storage.RID, len(words))
	for i, w := range words {
		file := storage.FileID(w>>28) % 3
		var page, slot uint32
		if w&1 == 0 {
			// Dense mix: few pages, full 16-bit slot range.
			page = (w >> 1) % 4
			slot = (w >> 3) & 0xFFFF
		} else {
			// Sparse mix: many pages, few slots each.
			page = (w >> 1) % 4096
			slot = (w >> 13) % 8
		}
		rids[i] = storage.RID{
			Page: storage.PageID{File: file, No: storage.PageNo(page)},
			Slot: uint16(slot),
		}
	}
	return rids
}

// Property: Add/MayContain/Len agree with a map-of-RIDs oracle, and
// FilterBatch matches per-RID probes, across sparse/dense slot mixes.
func TestQuickBitmapVsOracle(t *testing.T) {
	f := func(words []uint32, probeWords []uint32) bool {
		rids := ridMix(words)
		oracle := map[storage.RID]bool{}
		b := &CompressedBitmap{}
		for _, r := range rids {
			b.Add(r)
			oracle[r] = true
		}
		if b.Len() != len(oracle) {
			return false
		}
		probes := append(ridMix(probeWords), rids...)
		keep := make([]bool, len(probes))
		b.FilterBatch(probes, keep)
		for i, r := range probes {
			if b.MayContain(r) != oracle[r] || keep[i] != oracle[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// probeOrders returns the orders every filter must answer alike in:
// ascending, descending, shuffled, and shuffled with each probe twice.
func probeOrders(probes []storage.RID, seed int64) [][]storage.RID {
	asc := slices.Clone(probes)
	slices.SortFunc(asc, storage.RID.Compare)
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	shuffled := slices.Clone(probes)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	repeated := make([]storage.RID, 0, 2*len(probes))
	for _, r := range shuffled {
		repeated = append(repeated, r, r)
	}
	return [][]storage.RID{asc, desc, shuffled, repeated}
}

// agrees reports whether f answers like oracle for every probe, one at
// a time and in bulk, in every order.
func agrees(f Filter, oracle map[storage.RID]bool, orders [][]storage.RID) bool {
	for _, probes := range orders {
		keep := make([]bool, len(probes))
		f.FilterBatch(probes, keep)
		for i, r := range probes {
			if f.MayContain(r) != oracle[r] || keep[i] != oracle[r] {
				return false
			}
		}
	}
	return true
}

// Property: an in-memory container's filter (its sorted keys), FromRIDs
// and incremental Add agree with a map oracle over RID sets with
// duplicates spanning several files, for probes in every order.
func TestQuickFiltersVsOracle(t *testing.T) {
	f := func(words, probeWords []uint32, dupEvery uint8) bool {
		rids := ridMix(words)
		for i, n := 0, len(rids); i < n; i += int(dupEvery%5) + 1 {
			rids = append(rids, rids[i])
		}
		oracle := map[storage.RID]bool{}
		inc := &CompressedBitmap{}
		for _, r := range rids {
			oracle[r] = true
			inc.Add(r)
		}
		c := NewContainer(newPool(), DefaultConfig())
		if err := c.AppendBatch(rids); err != nil {
			return false
		}
		mem, ok := c.Filter().(*sortedKeys)
		bm := FromRIDs(rids)
		if !ok || len(mem.keys) != len(oracle) || bm.Len() != len(oracle) || inc.Len() != len(oracle) {
			return false
		}
		orders := probeOrders(append(ridMix(probeWords), rids...), int64(len(words)))
		return agrees(mem, oracle, orders) && agrees(bm, oracle, orders) && agrees(inc, oracle, orders)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// keysOfShapes are the orders and spreads keysOf must sort: shuffled
// over a table, descending, an index's per-key runs (each ascending),
// two files far apart in the key space, one page, and few distinct
// RIDs repeated.
var keysOfShapes = []func(rng *rand.Rand, n int) []storage.RID{
	func(rng *rand.Rand, n int) []storage.RID { return indexOrder(n, 1063, rng.Int63()) },
	func(rng *rand.Rand, n int) []storage.RID {
		rids := indexOrder(n, 1063, rng.Int63())
		slices.SortFunc(rids, func(a, b storage.RID) int { return b.Compare(a) })
		return rids
	},
	func(rng *rand.Rand, n int) []storage.RID {
		rids := indexOrder(n, 1063, rng.Int63())
		for i, run := 0, 1+rng.Intn(20); i < n; i += run {
			slices.SortFunc(rids[i:min(i+run, n)], storage.RID.Compare)
		}
		return rids
	},
	func(rng *rand.Rand, n int) []storage.RID {
		rids := indexOrder(n, 1063, rng.Int63())
		for i := range rids {
			rids[i].Page.File = storage.FileID(1 + 4000*rng.Intn(2))
		}
		return rids
	},
	func(rng *rand.Rand, n int) []storage.RID {
		rids := make([]storage.RID, n)
		for i, slot := range rng.Perm(n) {
			rids[i] = storage.RID{Page: storage.PageID{File: 2, No: 77}, Slot: uint16(slot)}
		}
		return rids
	},
	func(rng *rand.Rand, n int) []storage.RID {
		distinct := indexOrder(1+rng.Intn(50), 1063, rng.Int63())
		rids := make([]storage.RID, n)
		for i := range rids {
			rids[i] = distinct[rng.Intn(len(distinct))]
		}
		return rids
	},
}

// Property: keysOf is a sort and a dedup of the Keys, for every shape
// of list from empty to past the memory budget.
func TestQuickKeysOfSorts(t *testing.T) {
	f := func(seed int64, size uint16, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rids := keysOfShapes[int(shape)%len(keysOfShapes)](rng, int(size)%5001)
		want := make([]uint64, len(rids))
		for i, r := range rids {
			want[i] = r.Key()
		}
		slices.Sort(want)
		return slices.Equal(keysOf(rids), slices.Compact(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gallop finds the end of a prefix, wherever it lies in the
// searched span and wherever the span starts.
func TestQuickGallop(t *testing.T) {
	f := func(from, span, end uint16) bool {
		lo, n := int(from%100), int(from%100)+int(span%3000)
		stop := lo + int(end)%(n-lo+1)
		probes := 0
		got := Gallop(lo, n, func(i int) bool {
			if i < lo || i >= n {
				t.Fatalf("Gallop(%d, %d) probed %d", lo, n, i)
			}
			probes++
			return i < stop
		})
		return got == stop && probes <= 2*bits.Len(uint(stop-lo+1))+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a container one RID below its memory budget filters as its
// sorted keys, and one RID above it as its overflow bitmap, spilled or
// filter-only; each agrees with the oracle of what was appended.
func TestQuickContainerFilterAtBudget(t *testing.T) {
	f := func(words, probeWords []uint32, budget uint8) bool {
		m := int(budget%60) + 21 // past the static region
		rids := ridMix(words)
		for i := 0; len(rids) <= m; i++ {
			rids = append(rids, ridN(7*i))
		}
		for _, filterOnly := range []bool{false, true} {
			for _, n := range []int{m - 1, m + 1} {
				c := NewContainer(newPool(), Config{SmallCap: 20, MemBudget: m, FilterOnly: filterOnly})
				if err := c.AppendBatch(rids[:n]); err != nil {
					return false
				}
				oracle := map[storage.RID]bool{}
				for _, r := range rids[:n] {
					oracle[r] = true
				}
				filter := c.Filter()
				switch filter.(type) {
				case *sortedKeys:
					if n > m {
						return false
					}
				case *CompressedBitmap:
					if n < m {
						return false
					}
				default:
					return false
				}
				if !agrees(filter, oracle, probeOrders(append(ridMix(probeWords), rids...), int64(n))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFromRIDsChunksDoNotAlias: FromRIDs cuts every chunk's array from
// one slab; an Add to any chunk — between two of its slots or past the
// last — must leave every other chunk intact.
func TestFromRIDsChunksDoNotAlias(t *testing.T) {
	rid := func(page, slot int) storage.RID {
		return storage.RID{Page: storage.PageID{File: 1, No: storage.PageNo(page)}, Slot: uint16(slot)}
	}
	var rids []storage.RID
	for p := 0; p < 8; p++ {
		for s := 0; s < 10; s += 2 {
			rids = append(rids, rid(p, s))
		}
	}
	for target := 0; target < 8; target++ {
		for _, slot := range []int{1, 50} {
			b := FromRIDs(rids)
			oracle := map[storage.RID]bool{rid(target, slot): true}
			for _, r := range rids {
				oracle[r] = true
			}
			b.Add(rid(target, slot))
			if b.Len() != len(oracle) {
				t.Fatalf("Add(%d, %d): Len = %d, want %d", target, slot, b.Len(), len(oracle))
			}
			for p := 0; p < 8; p++ {
				for s := 0; s < 60; s++ {
					if got := b.MayContain(rid(p, s)); got != oracle[rid(p, s)] {
						t.Fatalf("after Add(%d, %d): MayContain(%d, %d) = %v", target, slot, p, s, got)
					}
				}
			}
		}
	}
}

// Property: Container.AppendBatch is equivalent to per-RID Append — same
// Len, same All() sequence, same (now exact) filter verdicts — across
// configurations that keep the list static, graduated, or spilled.
func TestQuickContainerAppendBatch(t *testing.T) {
	f := func(words []uint32, smallCap, memBudget uint8) bool {
		rids := ridMix(words)
		cfg := Config{SmallCap: int(smallCap%30) + 1, MemBudget: int(memBudget) + 2}

		one := NewContainer(newPool(), cfg)
		for _, r := range rids {
			if err := one.Append(r); err != nil {
				return false
			}
		}
		batch := NewContainer(newPool(), cfg)
		// Split into irregular sub-batches to hit region boundaries at
		// varying offsets.
		for i := 0; i < len(rids); {
			n := 1 + (i*7)%13
			if i+n > len(rids) {
				n = len(rids) - i
			}
			if err := batch.AppendBatch(rids[i : i+n]); err != nil {
				return false
			}
			i += n
		}

		if one.Len() != batch.Len() || one.Spilled() != batch.Spilled() {
			return false
		}
		a1, err1 := one.All()
		a2, err2 := batch.All()
		if err1 != nil || err2 != nil || len(a1) != len(a2) {
			return false
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				return false
			}
		}
		f1, f2 := one.Filter(), batch.Filter()
		for _, r := range rids {
			if !f1.MayContain(r) || !f2.MayContain(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
