package catalog

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

func newCatalog() *Catalog {
	return New(storage.NewBufferPool(storage.NewDisk(2048), 0))
}

func familiesTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := newCatalog()
	tb, err := c.CreateTable("FAMILIES", []Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "AGE", Type: expr.TypeInt},
		{Name: "NAME", Type: expr.TypeString},
		{Name: "INCOME", Type: expr.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, tb
}

func TestCreateTableValidation(t *testing.T) {
	c := newCatalog()
	if _, err := c.CreateTable("T", nil); err == nil {
		t.Fatal("no columns accepted")
	}
	if _, err := c.CreateTable("T", []Column{{Name: "A", Type: expr.TypeInt}, {Name: "A", Type: expr.TypeInt}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := c.CreateTable("T", []Column{{Name: "A", Type: expr.TypeInt}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("T", []Column{{Name: "B", Type: expr.TypeInt}}); !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("duplicate table: %v", err)
	}
	if _, err := c.Table("MISSING"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: %v", err)
	}
	if got, err := c.Table("T"); err != nil || got.Name != "T" {
		t.Fatalf("lookup: %v %v", got, err)
	}
}

func TestInsertFetchRoundTrip(t *testing.T) {
	_, tb := familiesTable(t)
	row := expr.Row{expr.Int(1), expr.Int(42), expr.Str("jones"), expr.Float(55000)}
	rid, err := tb.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tb.Fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if expr.Compare(got[i], row[i]) != 0 {
			t.Fatalf("column %d: %v != %v", i, got[i], row[i])
		}
	}
	if tb.Cardinality() != 1 {
		t.Fatalf("cardinality = %d", tb.Cardinality())
	}
}

func TestInsertValidation(t *testing.T) {
	_, tb := familiesTable(t)
	if _, err := tb.Insert(expr.Row{expr.Int(1)}); !errors.Is(err, ErrArity) {
		t.Fatalf("arity: %v", err)
	}
	bad := expr.Row{expr.Int(1), expr.Str("not-an-int"), expr.Str("x"), expr.Float(1)}
	if _, err := tb.Insert(bad); !errors.Is(err, ErrType) {
		t.Fatalf("type: %v", err)
	}
	// NULLs pass type checking.
	nulls := expr.Row{expr.Int(1), expr.Null(), expr.Null(), expr.Null()}
	if _, err := tb.Insert(nulls); err != nil {
		t.Fatalf("nulls rejected: %v", err)
	}
}

func TestIndexMaintenanceOnInsert(t *testing.T) {
	_, tb := familiesTable(t)
	ix, err := tb.CreateIndex("AGE_IX", "AGE")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		row := expr.Row{expr.Int(int64(i)), expr.Int(int64(i % 50)), expr.Str("n"), expr.Float(0)}
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Tree.Len() != 500 {
		t.Fatalf("index has %d entries, want 500", ix.Tree.Len())
	}
	// Range count over the index matches predicate truth.
	r := expr.Range{
		Lo: expr.Bound{Value: expr.Int(10), Inclusive: true, Present: true},
		Hi: expr.Bound{Value: expr.Int(20), Present: true},
	}
	lo, hi := r.EncodedBounds()
	n, err := ix.Tree.CountRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 { // ages 10..19, 10 each
		t.Fatalf("CountRange = %d, want 100", n)
	}
}

func TestCreateIndexBackfills(t *testing.T) {
	_, tb := familiesTable(t)
	for i := 0; i < 300; i++ {
		row := expr.Row{expr.Int(int64(i)), expr.Int(int64(i)), expr.Str("x"), expr.Float(0)}
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := tb.CreateIndex("LATE_IX", "AGE")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 300 {
		t.Fatalf("backfill produced %d entries, want 300", ix.Tree.Len())
	}
	if _, err := tb.CreateIndex("LATE_IX", "AGE"); !errors.Is(err, ErrDuplicateIndex) {
		t.Fatalf("duplicate index: %v", err)
	}
	if _, err := tb.CreateIndex("BAD", "NOPE"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad column: %v", err)
	}
}

// mutateOne sets the row at rid to row through Table.Mutate, the one
// write path of UPDATE and DELETE; a nil row deletes it.
func mutateOne(tb *Table, rid storage.RID, row expr.Row) error {
	_, err := tb.Mutate(func() ([]storage.RID, error) { return []storage.RID{rid}, nil },
		func(expr.Row) expr.Row { return row })
	return err
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	_, tb := familiesTable(t)
	ix, _ := tb.CreateIndex("AGE_IX", "AGE")
	var rids []storage.RID
	for i := 0; i < 100; i++ {
		rid, err := tb.Insert(expr.Row{expr.Int(int64(i)), expr.Int(int64(i)), expr.Str("x"), expr.Float(0)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i := 0; i < 100; i += 2 {
		if err := mutateOne(tb, rids[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Cardinality() != 50 {
		t.Fatalf("cardinality = %d", tb.Cardinality())
	}
	if ix.Tree.Len() != 50 {
		t.Fatalf("index entries = %d", ix.Tree.Len())
	}
}

func TestMultiColumnIndexAndDecodeEntry(t *testing.T) {
	_, tb := familiesTable(t)
	ix, err := tb.CreateIndex("NAME_AGE", "NAME", "AGE")
	if err != nil {
		t.Fatal(err)
	}
	row := expr.Row{expr.Int(9), expr.Int(33), expr.Str("smith"), expr.Float(1)}
	if _, err := tb.Insert(row); err != nil {
		t.Fatal(err)
	}
	key := ix.KeyFor(row)
	back, err := ix.DecodeEntry(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back[2].S != "smith" || back[1].I != 33 {
		t.Fatalf("DecodeEntry wrong: %v", back)
	}
	if !back[0].IsNull() {
		t.Fatal("non-key columns must decode as NULL")
	}
}

func TestCoversAndDeliversOrder(t *testing.T) {
	_, tb := familiesTable(t)
	ix, _ := tb.CreateIndex("NAME_AGE", "NAME", "AGE")
	ageCol, _ := tb.ColumnIndex("AGE")
	nameCol, _ := tb.ColumnIndex("NAME")
	incomeCol, _ := tb.ColumnIndex("INCOME")
	if !ix.Covers([]int{ageCol, nameCol}) {
		t.Fatal("index covers NAME and AGE")
	}
	if ix.Covers([]int{ageCol, incomeCol}) {
		t.Fatal("index must not cover INCOME")
	}
	if !ix.Covers(nil) {
		t.Fatal("empty set is always covered")
	}
	if !ix.DeliversOrder([]int{nameCol}) || !ix.DeliversOrder([]int{nameCol, ageCol}) {
		t.Fatal("prefix orders must be delivered")
	}
	if ix.DeliversOrder([]int{ageCol}) {
		t.Fatal("non-prefix order must not be delivered")
	}
	if ix.DeliversOrder([]int{nameCol, ageCol, incomeCol}) {
		t.Fatal("order longer than key must not be delivered")
	}
}

func TestClusterRatioDistinguishesLayouts(t *testing.T) {
	_, tb := familiesTable(t)
	clustered, _ := tb.CreateIndex("ID_IX", "ID")     // insertion order = key order
	unclustered, _ := tb.CreateIndex("AGE_IX", "AGE") // scattered
	rng := rand.New(rand.NewSource(4))
	perm := rng.Perm(2000)
	for i := 0; i < 2000; i++ {
		row := expr.Row{expr.Int(int64(i)), expr.Int(int64(perm[i])), expr.Str("abcdefgh"), expr.Float(0)}
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	rc, err := clustered.EstimateClusterRatio(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := unclustered.EstimateClusterRatio(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	if rc < 0.9 {
		t.Fatalf("clustered ratio = %v, want ~1", rc)
	}
	if ru > 0.5 {
		t.Fatalf("unclustered ratio = %v, want low", ru)
	}
}

func TestTableUpdateMaintainsIndexes(t *testing.T) {
	_, tb := familiesTable(t)
	ix, _ := tb.CreateIndex("AGE_IX", "AGE")
	rid, err := tb.Insert(expr.Row{expr.Int(1), expr.Int(30), expr.Str("x"), expr.Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := mutateOne(tb, rid, expr.Row{expr.Int(1), expr.Int(77), expr.Str("y"), expr.Float(2)}); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Fetch(rid)
	if err != nil || got[1].I != 77 || got[2].S != "y" {
		t.Fatalf("fetched %v, %v", got, err)
	}
	// The index moved to the new key.
	has, _ := ix.Tree.Contains(ix.KeyFor(got), rid)
	if !has {
		t.Fatal("new key missing from index")
	}
	oldKey := expr.EncodeKey(nil, expr.Int(30))
	has, _ = ix.Tree.Contains(oldKey, rid)
	if has {
		t.Fatal("old key still in index")
	}
	if ix.Tree.Len() != 1 {
		t.Fatalf("index entries = %d", ix.Tree.Len())
	}
	// Updates are type-checked.
	if err := mutateOne(tb, rid, expr.Row{expr.Int(1), expr.Str("no"), expr.Str("y"), expr.Float(2)}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	// Updating a missing RID fails.
	bad := storage.RID{Page: rid.Page, Slot: rid.Slot + 99}
	if err := mutateOne(tb, bad, got); err == nil {
		t.Fatal("phantom update accepted")
	}
}

func TestDropIndex(t *testing.T) {
	_, tb := familiesTable(t)
	if _, err := tb.CreateIndex("AGE_IX", "AGE"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("NAME_IX", "NAME"); err != nil {
		t.Fatal(err)
	}
	v := tb.Version()
	if err := tb.DropIndex("AGE_IX"); err != nil {
		t.Fatal(err)
	}
	if tb.Version() != v+1 {
		t.Fatalf("version = %d, want %d", tb.Version(), v+1)
	}
	if tb.IndexByName("AGE_IX") != nil {
		t.Fatal("dropped index still visible")
	}
	if tb.IndexByName("NAME_IX") == nil {
		t.Fatal("surviving index lost")
	}
	if err := tb.DropIndex("AGE_IX"); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatalf("double drop: %v", err)
	}
	// The dropped name can be re-created.
	if _, err := tb.CreateIndex("AGE_IX", "AGE"); err != nil {
		t.Fatal(err)
	}
}

func TestEpochCounters(t *testing.T) {
	_, tb := familiesTable(t)
	if tb.Version() != 0 || tb.StatsEpoch() != 0 {
		t.Fatal("fresh table must start at epoch zero")
	}
	rid, err := tb.Insert(expr.Row{expr.Int(1), expr.Int(30), expr.Str("x"), expr.Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	if tb.StatsEpoch() != 1 {
		t.Fatalf("stats epoch after insert = %d", tb.StatsEpoch())
	}
	if err := mutateOne(tb, rid, expr.Row{expr.Int(1), expr.Int(31), expr.Str("x"), expr.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if err := mutateOne(tb, rid, nil); err != nil {
		t.Fatal(err)
	}
	if tb.StatsEpoch() != 3 {
		t.Fatalf("stats epoch after update+delete = %d", tb.StatsEpoch())
	}
	if tb.Version() != 0 {
		t.Fatal("row mutations must not bump the schema version")
	}
	if _, err := tb.CreateIndex("AGE_IX", "AGE"); err != nil {
		t.Fatal(err)
	}
	if tb.Version() != 1 {
		t.Fatalf("version after create = %d", tb.Version())
	}
	// RLock excludes writers for its duration.
	unlock := tb.RLock()
	before := tb.StatsEpoch()
	done := make(chan struct{})
	go func() {
		_, _ = tb.Insert(expr.Row{expr.Int(2), expr.Int(5), expr.Str("y"), expr.Float(0)})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("insert completed while read lock held")
	case <-time.After(20 * time.Millisecond):
	}
	if tb.StatsEpoch() != before {
		t.Fatal("stats moved under read lock")
	}
	unlock()
	<-done
	if tb.StatsEpoch() != before+1 {
		t.Fatal("insert did not land after unlock")
	}
}

func TestCatalogAccessors(t *testing.T) {
	_, tb := familiesTable(t)
	if tb.Pool() == nil {
		t.Fatal("pool accessor nil")
	}
	if tb.Pages() != tb.Heap.NumPages() {
		t.Fatal("Pages mismatch")
	}
	ix, _ := tb.CreateIndex("NA", "NAME", "AGE")
	nameCol, _ := tb.ColumnIndex("NAME")
	if ix.LeadingCol() != nameCol {
		t.Fatalf("leading col = %d", ix.LeadingCol())
	}
}

// TestStampStale pins the one staleness rule: a stamp goes stale on any
// schema change, or past max(32, card/5) row mutations — card being the
// cardinality at the stamp — and a table set's stamp sums its tables'.
func TestStampStale(t *testing.T) {
	for _, tc := range []struct {
		then, now Stamp
		stale     bool
	}{
		{Stamp{1, 10, 0}, Stamp{1, 42, 5}, false},       // 32 mutations of an empty table
		{Stamp{1, 10, 0}, Stamp{1, 43, 5}, true},        // 33
		{Stamp{1, 10, 1000}, Stamp{1, 210, 900}, false}, // 200 = 1000/5
		{Stamp{1, 10, 1000}, Stamp{1, 211, 900}, true},
		{Stamp{1, 10, 1000}, Stamp{2, 10, 1000}, true}, // an index created or dropped
	} {
		if got := tc.then.Stale(tc.now); got != tc.stale {
			t.Errorf("%+v then, %+v now: stale = %v, want %v", tc.then, tc.now, got, tc.stale)
		}
	}

	_, a := familiesTable(t)
	_, b := familiesTable(t)
	if _, err := a.Insert(expr.Row{expr.Int(1), expr.Int(30), expr.Str("x"), expr.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateIndex("AGE_IX", "AGE"); err != nil {
		t.Fatal(err)
	}
	if got, want := StampOf(a, b), (Stamp{version: 1, epoch: 1, card: 1}); got != want {
		t.Fatalf("StampOf(a, b) = %+v, want %+v", got, want)
	}
}
