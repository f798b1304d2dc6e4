package rid

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rdbdyn/internal/storage"
)

func ridN(i int) storage.RID {
	return storage.RID{Page: storage.PageID{File: 1, No: storage.PageNo(i / 100)}, Slot: uint16(i % 100)}
}

func newPool() *storage.BufferPool {
	return storage.NewBufferPool(storage.NewDisk(1024), 0)
}

// raceEnabled is set by raceon_test.go when the race detector is on.
var raceEnabled bool

// TestAllocsFilterBuild: building a list's filter costs the same few
// allocations whatever order the list is in — one for an in-memory
// container's sorted keys, a constant handful for FromRIDs' bitmap —
// over 1 000 RIDs in a Jscan's index-key order as in page order.
func TestAllocsFilterBuild(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	shuffled := indexOrder(1000, 1063, 1)
	sorted := slices.Clone(shuffled)
	slices.SortFunc(sorted, storage.RID.Compare)
	build := func(rids []storage.RID) (filter, bitmap float64) {
		c := NewContainer(newPool(), DefaultConfig())
		if err := c.AppendBatch(rids); err != nil {
			t.Fatal(err)
		}
		filter = testing.AllocsPerRun(20, func() { c.Filter() })
		bitmap = testing.AllocsPerRun(20, func() { FromRIDs(rids) })
		return filter, bitmap
	}
	fi, bi := build(shuffled)
	fp, bp := build(sorted)
	if fi != 1 || fp != 1 {
		t.Errorf("Container.Filter: %v allocations in index order, %v in page order; want 1", fi, fp)
	}
	if bi != bp || bi > 5 {
		t.Errorf("FromRIDs: %v allocations in index order, %v in page order; want equal and at most 5", bi, bp)
	}
}

// TestSortedKeysMembership: an in-memory list filters as its sorted
// keys, whatever order its RIDs arrived in.
func TestSortedKeysMembership(t *testing.T) {
	var rids []storage.RID
	for i := 0; i < 100; i += 2 {
		rids = append(rids, ridN(i))
	}
	// Shuffle to prove the filter sorts.
	rand.New(rand.NewSource(1)).Shuffle(len(rids), func(i, j int) { rids[i], rids[j] = rids[j], rids[i] })
	c := NewContainer(newPool(), DefaultConfig())
	if err := c.AppendBatch(rids); err != nil {
		t.Fatal(err)
	}
	f := c.Filter()
	if _, ok := f.(*sortedKeys); !ok {
		t.Fatalf("in-memory filter is %T, want *sortedKeys", f)
	}
	for i := 0; i < 100; i++ {
		want := i%2 == 0
		if got := f.MayContain(ridN(i)); got != want {
			t.Fatalf("MayContain(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestCompressedBitmapExactMembership(t *testing.T) {
	b := &CompressedBitmap{}
	for i := 0; i < 1000; i++ {
		b.Add(ridN(i * 3))
	}
	if b.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", b.Len())
	}
	for i := 0; i < 3000; i++ {
		want := i%3 == 0
		if got := b.MayContain(ridN(i)); got != want {
			t.Fatalf("MayContain(%d) = %v, want %v", i, got, want)
		}
	}
	// Far-away probes: no false positives, ever.
	for i := 0; i < 10000; i++ {
		if b.MayContain(ridN(100000 + i)) {
			t.Fatalf("false positive at %d", 100000+i)
		}
	}
}

func TestCompressedBitmapFilterBatch(t *testing.T) {
	b := &CompressedBitmap{}
	for i := 0; i < 500; i++ {
		b.Add(ridN(i * 2))
	}
	rids := make([]storage.RID, 1000)
	for i := range rids {
		rids[i] = ridN(i)
	}
	keep := make([]bool, len(rids))
	b.FilterBatch(rids, keep)
	for i, k := range keep {
		if want := i%2 == 0; k != want {
			t.Fatalf("FilterBatch[%d] = %v, want %v", i, k, want)
		}
	}
}

func TestCompressedBitmapDenseChunk(t *testing.T) {
	// Fill one page's chunk past the array threshold so it converts to
	// a packed bitset, then delete nothing and probe everything.
	b := &CompressedBitmap{}
	pg := storage.PageID{File: 2, No: 7}
	for s := 0; s < 5000; s++ {
		b.Add(storage.RID{Page: pg, Slot: uint16(s)})
	}
	if b.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", b.Len())
	}
	for s := 0; s < 6000; s++ {
		want := s < 5000
		if got := b.MayContain(storage.RID{Page: pg, Slot: uint16(s)}); got != want {
			t.Fatalf("dense MayContain(%d) = %v, want %v", s, got, want)
		}
	}
	// Duplicate adds must not inflate cardinality.
	b.Add(storage.RID{Page: pg, Slot: 42})
	if b.Len() != 5000 {
		t.Fatalf("Len after dup add = %d, want 5000", b.Len())
	}
}

func TestTrueFilter(t *testing.T) {
	var f Filter = TrueFilter{}
	keep := make([]bool, 2)
	f.FilterBatch([]storage.RID{ridN(5), ridN(9)}, keep)
	if !f.MayContain(ridN(5)) || !keep[0] || !keep[1] {
		t.Fatal("TrueFilter misbehaves")
	}
}

func TestContainerStaticRegion(t *testing.T) {
	c := NewContainer(newPool(), DefaultConfig())
	for i := 0; i < 20; i++ {
		if err := c.Append(ridN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Allocated() || c.Spilled() {
		t.Fatal("20 RIDs must stay in the static region")
	}
	all, err := c.All()
	if err != nil || len(all) != 20 {
		t.Fatalf("All: %d, %v", len(all), err)
	}
	for i, r := range all {
		if r != ridN(i) {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestContainerGraduatesToAllocated(t *testing.T) {
	c := NewContainer(newPool(), Config{SmallCap: 20, MemBudget: 100})
	for i := 0; i < 50; i++ {
		if err := c.Append(ridN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Allocated() || c.Spilled() {
		t.Fatalf("50 RIDs: allocated=%v spilled=%v", c.Allocated(), c.Spilled())
	}
	f := c.Filter()
	if _, ok := f.(*sortedKeys); !ok {
		t.Fatalf("in-memory filter is %T, want *sortedKeys", f)
	}
	if !f.MayContain(ridN(7)) || f.MayContain(ridN(99)) {
		t.Fatal("filter membership wrong")
	}
}

func TestContainerSpillsAndReadsBack(t *testing.T) {
	pool := newPool()
	c := NewContainer(pool, Config{SmallCap: 20, MemBudget: 100})
	const total = 1000
	for i := 0; i < total; i++ {
		if err := c.Append(ridN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Spilled() {
		t.Fatal("1000 RIDs over budget 100 must spill")
	}
	if c.MemRIDs() != 100 {
		t.Fatalf("in-memory RIDs = %d, want 100", c.MemRIDs())
	}
	f := c.Filter()
	if _, ok := f.(*CompressedBitmap); !ok {
		t.Fatalf("spilled filter is %T, want *CompressedBitmap", f)
	}
	for i := 0; i < total; i++ {
		if !f.MayContain(ridN(i)) {
			t.Fatalf("bitmap false negative at %d", i)
		}
	}
	for i := total; i < 2*total; i++ {
		if f.MayContain(ridN(i)) {
			t.Fatalf("bitmap false positive at %d", i)
		}
	}
	all, err := c.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != total {
		t.Fatalf("All returned %d, want %d", len(all), total)
	}
	seen := map[storage.RID]bool{}
	for _, r := range all {
		seen[r] = true
	}
	if len(seen) != total {
		t.Fatalf("distinct RIDs = %d, want %d", len(seen), total)
	}
}

func TestContainerSortedAll(t *testing.T) {
	c := NewContainer(newPool(), Config{SmallCap: 4, MemBudget: 8})
	idx := []int{50, 3, 99, 1, 77, 20, 65, 4, 88, 2, 31, 9}
	for _, i := range idx {
		if err := c.Append(ridN(i)); err != nil {
			t.Fatal(err)
		}
	}
	sorted, err := c.SortedAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != len(idx) {
		t.Fatalf("len = %d", len(sorted))
	}
	for i := 1; i < len(sorted); i++ {
		if !sorted[i-1].Less(sorted[i]) {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestContainerDiscard(t *testing.T) {
	pool := newPool()
	c := NewContainer(pool, Config{SmallCap: 2, MemBudget: 4})
	for i := 0; i < 100; i++ {
		c.Append(ridN(i))
	}
	if !c.Spilled() {
		t.Fatal("expected spill")
	}
	c.Discard()
	if err := c.Append(ridN(0)); err != ErrDiscarded {
		t.Fatalf("append after discard: %v", err)
	}
	if _, err := c.All(); err != ErrDiscarded {
		t.Fatalf("All after discard: %v", err)
	}
}

func TestContainerSpillChargesIO(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewDisk(1024), 4)
	c := NewContainer(pool, Config{SmallCap: 20, MemBudget: 50})
	pool.ResetStats()
	for i := 0; i < 5000; i++ {
		if err := c.Append(ridN(i)); err != nil {
			t.Fatal(err)
		}
	}
	// With a 4-frame pool, spilled pages get evicted dirty: writes > 0.
	if w := pool.Stats().Writes; w == 0 {
		t.Fatal("spill should cost write I/O under memory pressure")
	}
	before := pool.Stats().Reads
	if _, err := c.All(); err != nil {
		t.Fatal(err)
	}
	if r := pool.Stats().Reads; r == before {
		t.Fatal("read-back of spilled RIDs should cost read I/O")
	}
}

func TestContainerZeroRIDShortcut(t *testing.T) {
	c := NewContainer(newPool(), DefaultConfig())
	if c.Len() != 0 {
		t.Fatal("fresh container must be empty")
	}
	all, err := c.All()
	if err != nil || len(all) != 0 {
		t.Fatalf("All on empty: %v, %v", all, err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SmallCap != 20 || c.MemBudget < c.SmallCap {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// SmallCap above the static array is clamped by NewContainer.
	cont := NewContainer(newPool(), Config{SmallCap: 1000, MemBudget: 2000})
	for i := 0; i < 30; i++ {
		if err := cont.Append(ridN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !cont.Allocated() {
		t.Fatal("must have graduated past the clamped static region")
	}
}

// Property: for any append sequence and configuration, All() returns
// exactly the appended sequence and the filter accepts every member.
func TestQuickContainerModel(t *testing.T) {
	f := func(idx []uint16, smallCap, memBudget uint8) bool {
		if len(idx) > 500 {
			idx = idx[:500]
		}
		cfg := Config{SmallCap: int(smallCap%30) + 1, MemBudget: int(memBudget) + 2}
		c := NewContainer(newPool(), cfg)
		want := make([]storage.RID, len(idx))
		for i, v := range idx {
			want[i] = ridN(int(v))
			if err := c.Append(want[i]); err != nil {
				return false
			}
		}
		if c.Len() != len(want) {
			return false
		}
		got, err := c.All()
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		filter := c.Filter()
		for _, r := range want {
			if !filter.MayContain(r) {
				return false
			}
		}
		// SortedAll is sorted and a permutation of want.
		sorted, err := c.SortedAll()
		if err != nil || len(sorted) != len(want) {
			return false
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Less(sorted[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
