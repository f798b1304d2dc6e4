package btree

import (
	"math/rand"
	"sort"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// newTestTree builds a tree on a small page size so splits happen early.
func newTestTree(t testing.TB, pageSize int) (*BTree, *storage.BufferPool) {
	t.Helper()
	d := storage.NewDisk(pageSize)
	bp := storage.NewBufferPool(d, 0)
	data := d.CreateFile()
	tr, err := New(bp, data)
	if err != nil {
		t.Fatal(err)
	}
	return tr, bp
}

func ridFor(i int) storage.RID {
	return storage.RID{Page: storage.PageID{File: 0, No: storage.PageNo(i / 50)}, Slot: uint16(i % 50)}
}

func intKey(v int64) []byte { return expr.EncodeKey(nil, expr.Int(v)) }

func insertInts(t testing.TB, tr *BTree, vals []int64) {
	t.Helper()
	for i, v := range vals {
		if err := tr.Insert(intKey(v), ridFor(i)); err != nil {
			t.Fatalf("insert %d: %v", v, err)
		}
	}
}

func scanAll(t testing.TB, tr *BTree) []int64 {
	t.Helper()
	c, err := tr.Seek(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for {
		k, _, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		row, err := expr.DecodeKey(k, []expr.Type{expr.TypeInt})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, row[0].I)
	}
	return out
}

func TestInsertAndScanSorted(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	vals := make([]int64, 2000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Int63n(10000)
	}
	insertInts(t, tr, vals)
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := scanAll(t, tr)
	want := append([]int64(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("scan returned %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("tree should have split with page size 256 (height=%d)", tr.Height())
	}
}

func TestRangeCursorBounds(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	var vals []int64
	for i := int64(0); i < 1000; i++ {
		vals = append(vals, i)
	}
	insertInts(t, tr, vals)
	r := expr.Range{
		Lo: expr.Bound{Value: expr.Int(100), Inclusive: true, Present: true},
		Hi: expr.Bound{Value: expr.Int(200), Present: true},
	}
	lo, hi := r.EncodedBounds()
	c, err := tr.Seek(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	prev := int64(-1)
	for {
		k, _, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		row, _ := expr.DecodeKey(k, []expr.Type{expr.TypeInt})
		v := row[0].I
		if v < 100 || v >= 200 {
			t.Fatalf("out-of-range value %d", v)
		}
		if v <= prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
		n++
	}
	if n != 100 {
		t.Fatalf("range scan returned %d, want 100", n)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	const dups = 500
	for i := 0; i < dups; i++ {
		if err := tr.Insert(intKey(7), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	insertInts(t, tr, []int64{1, 2, 3, 8, 9})
	lo, hi := expr.PointRange(expr.Int(7)).EncodedBounds()
	c, _ := tr.Seek(lo, hi)
	seen := map[storage.RID]bool{}
	for {
		_, rid, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[rid] {
			t.Fatalf("duplicate RID %v returned twice", rid)
		}
		seen[rid] = true
	}
	if len(seen) != dups {
		t.Fatalf("point scan found %d duplicates, want %d", len(seen), dups)
	}
}

func TestDeleteExactEntry(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	insertInts(t, tr, []int64{1, 2, 2, 2, 3})
	// Delete the middle duplicate only.
	ok, err := tr.Delete(intKey(2), ridFor(2))
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	has, err := tr.Contains(intKey(2), ridFor(2))
	if err != nil || has {
		t.Fatal("deleted entry still present")
	}
	has, err = tr.Contains(intKey(2), ridFor(1))
	if err != nil || !has {
		t.Fatal("sibling duplicate vanished")
	}
	// Deleting a missing entry is a no-op.
	ok, err = tr.Delete(intKey(99), ridFor(0))
	if err != nil || ok {
		t.Fatalf("phantom delete: %v %v", ok, err)
	}
}

func TestCountRangeExact(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	rng := rand.New(rand.NewSource(3))
	counts := map[int64]int64{}
	var vals []int64
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(300)
		vals = append(vals, v)
		counts[v]++
	}
	insertInts(t, tr, vals)
	for trial := 0; trial < 200; trial++ {
		a := rng.Int63n(300)
		b := a + rng.Int63n(300-a) + 1
		var want int64
		for v := a; v < b; v++ {
			want += counts[v]
		}
		r := expr.Range{
			Lo: expr.Bound{Value: expr.Int(a), Inclusive: true, Present: true},
			Hi: expr.Bound{Value: expr.Int(b), Present: true},
		}
		lo, hi := r.EncodedBounds()
		got, err := tr.CountRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("CountRange[%d,%d) = %d, want %d", a, b, got, want)
		}
	}
	// Unbounded count equals Len.
	all, err := tr.CountRange(nil, nil)
	if err != nil || all != tr.Len() {
		t.Fatalf("CountRange(nil,nil) = %d, want %d", all, tr.Len())
	}
}

func TestCountsSurviveDeletes(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	var vals []int64
	for i := int64(0); i < 3000; i++ {
		vals = append(vals, i)
	}
	insertInts(t, tr, vals)
	// Delete every third entry.
	for i := int64(0); i < 3000; i += 3 {
		ok, err := tr.Delete(intKey(i), ridFor(int(i)))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	got, err := tr.CountRange(nil, nil)
	if err != nil || got != 2000 {
		t.Fatalf("count after deletes = %d, want 2000", got)
	}
	r := expr.Range{
		Lo: expr.Bound{Value: expr.Int(0), Inclusive: true, Present: true},
		Hi: expr.Bound{Value: expr.Int(300), Present: true},
	}
	lo, hi := r.EncodedBounds()
	got, err = tr.CountRange(lo, hi)
	if err != nil || got != 200 {
		t.Fatalf("partial count after deletes = %d, want 200", got)
	}
}

func TestEntryAtMatchesScanOrder(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	rng := rand.New(rand.NewSource(9))
	var vals []int64
	for i := 0; i < 2000; i++ {
		vals = append(vals, rng.Int63n(1<<40))
	}
	insertInts(t, tr, vals)
	sorted := scanAll(t, tr)
	for _, rank := range []int64{0, 1, 17, 999, 1999} {
		k, _, err := tr.EntryAt(rank)
		if err != nil {
			t.Fatal(err)
		}
		row, _ := expr.DecodeKey(k, []expr.Type{expr.TypeInt})
		if row[0].I != sorted[rank] {
			t.Fatalf("EntryAt(%d) = %d, want %d", rank, row[0].I, sorted[rank])
		}
	}
}

func TestEstimateRangeShape(t *testing.T) {
	tr, _ := newTestTree(t, 512)
	var vals []int64
	for i := int64(0); i < 50000; i++ {
		vals = append(vals, i%1000) // 50 entries per distinct key
	}
	insertInts(t, tr, vals)
	mk := func(a, b int64) (lob, hib []byte) {
		r := expr.Range{
			Lo: expr.Bound{Value: expr.Int(a), Inclusive: true, Present: true},
			Hi: expr.Bound{Value: expr.Int(b), Present: true},
		}
		return r.EncodedBounds()
	}
	// The estimator must order ranges correctly across decades even if
	// individual estimates are rough, and be exact for tiny ranges that
	// land in one leaf.
	sizes := []int64{1, 10, 100, 1000}
	var prev float64 = -1
	for _, sz := range sizes {
		lo, hi := mk(0, sz)
		est, err := tr.EstimateRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(sz * 50)
		if est.RIDs <= prev {
			t.Fatalf("estimates must grow with range size: size %d got %.0f after %.0f", sz, est.RIDs, prev)
		}
		if est.RIDs < truth/20 || est.RIDs > truth*20 {
			t.Fatalf("estimate for %d keys wildly off: got %.0f, truth %.0f", sz, est.RIDs, truth)
		}
		prev = est.RIDs
	}
	// Empty range -> exact zero via leaf descent.
	lo, hi := mk(5000, 5001)
	est, err := tr.EstimateRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if est.RIDs != 0 {
		t.Fatalf("empty range estimated %f", est.RIDs)
	}
}

func TestEstimateRangeRefinedAccuracy(t *testing.T) {
	tr, _ := newTestTree(t, 512)
	var vals []int64
	for i := int64(0); i < 50000; i++ {
		vals = append(vals, i%1000)
	}
	insertInts(t, tr, vals)
	mk := func(a, b int64) (lob, hib []byte) {
		r := expr.Range{
			Lo: expr.Bound{Value: expr.Int(a), Inclusive: true, Present: true},
			Hi: expr.Bound{Value: expr.Int(b), Present: true},
		}
		return r.EncodedBounds()
	}
	for _, tc := range []struct{ a, b int64 }{{0, 1}, {10, 30}, {100, 400}, {0, 1000}, {990, 1000}} {
		lo, hi := mk(tc.a, tc.b)
		got, _, err := tr.EstimateRangeRefined(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		truth := float64((tc.b - tc.a) * 50)
		if got < truth/2 || got > truth*2 {
			t.Fatalf("refined estimate [%d,%d) = %.0f, truth %.0f", tc.a, tc.b, got, truth)
		}
	}
	// Tiny ranges are flagged exact.
	lo, hi := mk(5, 6)
	got, exact, err := tr.EstimateRangeRefined(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		// 50 duplicates of key 5 may span >2 leaves; only require
		// exactness when the flag says so.
		if exact {
			t.Fatalf("exact flag with wrong count %f", got)
		}
	}
	// Unbounded on both sides approximates Len.
	got, _, err = tr.EstimateRangeRefined(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got < float64(tr.Len())/2 || got > float64(tr.Len())*2 {
		t.Fatalf("full-range refined estimate %.0f vs Len %d", got, tr.Len())
	}
}

func TestEstimateCheaperThanScan(t *testing.T) {
	tr, bp := newTestTree(t, 512)
	var vals []int64
	for i := int64(0); i < 20000; i++ {
		vals = append(vals, i)
	}
	insertInts(t, tr, vals)
	bp.EvictAll()
	bp.ResetStats()
	r := expr.Range{
		Lo: expr.Bound{Value: expr.Int(1000), Inclusive: true, Present: true},
		Hi: expr.Bound{Value: expr.Int(19000), Present: true},
	}
	lo, hi := r.EncodedBounds()
	if _, err := tr.EstimateRange(lo, hi); err != nil {
		t.Fatal(err)
	}
	estCost := bp.Stats().IOCost()
	if int(estCost) > tr.Height() {
		t.Fatalf("estimation cost %d exceeds tree height %d", estCost, tr.Height())
	}
}

func TestSampleRangeUniformity(t *testing.T) {
	tr, _ := newTestTree(t, 512)
	var vals []int64
	for i := int64(0); i < 10000; i++ {
		vals = append(vals, i)
	}
	insertInts(t, tr, vals)
	rng := rand.New(rand.NewSource(21))
	r := expr.Range{
		Lo: expr.Bound{Value: expr.Int(2000), Inclusive: true, Present: true},
		Hi: expr.Bound{Value: expr.Int(4000), Present: true},
	}
	lo, hi := r.EncodedBounds()
	keys, rids, count, err := tr.SampleRange(rng, lo, hi, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2000 {
		t.Fatalf("range count = %d, want 2000", count)
	}
	if len(keys) != 2000 || len(rids) != 2000 {
		t.Fatalf("sample sizes: %d keys, %d rids", len(keys), len(rids))
	}
	// All samples in range; mean near the middle of [2000, 4000).
	var sum float64
	for _, k := range keys {
		row, _ := expr.DecodeKey(k, []expr.Type{expr.TypeInt})
		v := row[0].I
		if v < 2000 || v >= 4000 {
			t.Fatalf("sample %d out of range", v)
		}
		sum += float64(v)
	}
	mean := sum / float64(len(keys))
	if mean < 2900 || mean > 3100 {
		t.Fatalf("sample mean %.0f suggests bias (want ~3000)", mean)
	}
}

func TestSampleAcceptRejectIsUnbiasedEnough(t *testing.T) {
	tr, _ := newTestTree(t, 512)
	var vals []int64
	for i := int64(0); i < 5000; i++ {
		vals = append(vals, i)
	}
	insertInts(t, tr, vals)
	rng := rand.New(rand.NewSource(33))
	mf := tr.MaxFanout()
	var accepted, sum float64
	for i := 0; i < 200000 && accepted < 500; i++ {
		k, _, ok, _, err := tr.SampleAcceptReject(rng, mf)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		accepted++
		row, _ := expr.DecodeKey(k, []expr.Type{expr.TypeInt})
		sum += float64(row[0].I)
	}
	if accepted < 100 {
		t.Fatalf("acceptance rate too low: %v accepted", accepted)
	}
	mean := sum / accepted
	if mean < 2000 || mean > 3000 {
		t.Fatalf("A/R sample mean %.0f suggests bias (want ~2500)", mean)
	}
}

// leafEnt and sepEnt assemble entries as the tree does.
func leafEnt(key []byte, r storage.RID) []byte { return appendRID(append([]byte(nil), key...), r) }
func sepEnt(key []byte, r storage.RID, child storage.PageNo, count int64) []byte {
	return appendRef(leafEnt(key, r), child, count)
}

func TestNodeSerializationRoundTrip(t *testing.T) {
	page := func(leaf bool, link uint32, count0 int64, ents ...[]byte) *storage.Page {
		p := storage.NewPage(storage.PageID{}, 512)
		if err := fillNode(p, leaf, link, count0, ents); err != nil {
			t.Fatal(err)
		}
		return p
	}
	dec, err := viewNode(page(true, 5, 0, leafEnt(intKey(1), ridFor(0)), leafEnt(intKey(2), ridFor(1))), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.leaf || dec.next() != 5 || dec.numEnts() != 2 || string(dec.key(1)) != string(intKey(2)) {
		t.Fatalf("leaf round trip: %+v", dec)
	}
	if want := ridFor(1); dec.rid(1).Page.File != 3 || dec.rid(1).Slot != want.Slot || dec.rid(1).Page.No != want.Page.No {
		t.Fatalf("RID not restored: %v", dec.rid(1))
	}
	dec, err = viewNode(page(false, 1, 40, sepEnt(intKey(10), ridFor(7), 2, 60)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if dec.leaf || dec.numChildren() != 2 || dec.child(0) != 1 || dec.count(0) != 40 || dec.child(1) != 2 || dec.count(1) != 60 ||
		dec.rid(0) != (storage.RID{Page: storage.PageID{File: 3, No: ridFor(7).Page.No}, Slot: ridFor(7).Slot}) || dec.subtreeCount() != 100 {
		t.Fatalf("internal round trip: %+v", dec)
	}
	dec.setCount(1, 61)
	if dec.count(1) != 61 || dec.child(1) != 2 || string(dec.key(0)) != string(intKey(10)) {
		t.Fatalf("count rewrite disturbed its neighbours: %+v", dec)
	}
	// A page that does not start with a node header must be detected.
	bad := storage.NewPage(storage.PageID{}, 512)
	if _, err := viewNode(bad, 3); err != ErrCorruptNode {
		t.Fatalf("empty page accepted: %v", err)
	}
	for cut := 0; cut < hdrBytes; cut++ {
		bad = storage.NewPage(storage.PageID{}, 512)
		if _, err := bad.Insert(make([]byte, cut)); err != nil {
			t.Fatal(err)
		}
		if _, err := viewNode(bad, 3); err != ErrCorruptNode {
			t.Fatalf("header truncated at %d accepted: %v", cut, err)
		}
	}
}

func TestTreeSurvivesCacheEviction(t *testing.T) {
	// A tiny buffer pool forces node pages out and back in constantly.
	d := storage.NewDisk(512)
	bp := storage.NewBufferPool(d, 4)
	data := d.CreateFile()
	tr, err := New(bp, data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	want := map[int64]int{}
	for i := 0; i < 3000; i++ {
		v := rng.Int63n(500)
		if err := tr.Insert(intKey(v), ridFor(i)); err != nil {
			t.Fatal(err)
		}
		want[v]++
		if i%97 == 0 {
			bp.EvictAll()
		}
	}
	bp.EvictAll()
	got := scanAll(t, tr)
	if int64(len(got)) != tr.Len() {
		t.Fatalf("scan %d entries, Len %d", len(got), tr.Len())
	}
	counts := map[int64]int{}
	for _, v := range got {
		counts[v]++
	}
	for v, n := range want {
		if counts[v] != n {
			t.Fatalf("key %d: %d entries, want %d", v, counts[v], n)
		}
	}
}

// Model-based randomized test: the tree must agree with a sorted slice
// under a random workload of inserts, deletes, scans, and counts.
func TestTreeAgainstModel(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	rng := rand.New(rand.NewSource(77))
	type entry struct {
		v   int64
		rid storage.RID
	}
	var model []entry
	nextRID := 0
	for op := 0; op < 4000; op++ {
		switch {
		case len(model) == 0 || rng.Intn(10) < 6: // insert
			v := rng.Int63n(200)
			rid := ridFor(nextRID)
			nextRID++
			if err := tr.Insert(intKey(v), rid); err != nil {
				t.Fatal(err)
			}
			model = append(model, entry{v, rid})
		case rng.Intn(2) == 0: // delete random existing
			i := rng.Intn(len(model))
			e := model[i]
			ok, err := tr.Delete(intKey(e.v), e.rid)
			if err != nil || !ok {
				t.Fatalf("delete of live entry failed: %v %v", ok, err)
			}
			model[i] = model[len(model)-1]
			model = model[:len(model)-1]
		default: // count a random range
			a := rng.Int63n(200)
			b := a + rng.Int63n(200-a) + 1
			var want int64
			for _, e := range model {
				if e.v >= a && e.v < b {
					want++
				}
			}
			r := expr.Range{
				Lo: expr.Bound{Value: expr.Int(a), Inclusive: true, Present: true},
				Hi: expr.Bound{Value: expr.Int(b), Present: true},
			}
			lo, hi := r.EncodedBounds()
			got, err := tr.CountRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("op %d: CountRange[%d,%d) = %d, want %d", op, a, b, got, want)
			}
		}
		if tr.Len() != int64(len(model)) {
			t.Fatalf("op %d: Len %d, model %d", op, tr.Len(), len(model))
		}
	}
	got := scanAll(t, tr)
	want := make([]int64, len(model))
	for i, e := range model {
		want[i] = e.v
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("final scan %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("final scan diverges at %d", i)
		}
	}
}
