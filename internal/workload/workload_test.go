package workload

import (
	"math/rand"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

func newCat() *catalog.Catalog {
	return catalog.New(storage.NewBufferPool(storage.NewDisk(4096), 0))
}

func TestBuildCreatesTableAndIndexes(t *testing.T) {
	spec := TableSpec{
		Name: "T",
		Rows: 1000,
		Columns: []ColumnSpec{
			{Name: "ID", Gen: &Seq{}},
			{Name: "A", Gen: Uniform{Lo: 0, Hi: 50}},
			{Name: "Z", Gen: &Zipf{S: 1.5, V: 1, N: 100}},
			{Name: "F", Gen: UniformFloat{Lo: 0, Hi: 1}},
			{Name: "P", Gen: Pad{Len: 30}},
		},
		Indexes: [][]string{{"ID"}, {"A"}, {"Z", "A"}},
		Seed:    7,
	}
	tab, err := Build(newCat(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Cardinality() != 1000 {
		t.Fatalf("rows = %d", tab.Cardinality())
	}
	if len(tab.Indexes) != 3 {
		t.Fatalf("indexes = %d", len(tab.Indexes))
	}
	for _, ix := range tab.Indexes {
		if ix.Tree.Len() != 1000 {
			t.Fatalf("index %s has %d entries", ix.Name, ix.Tree.Len())
		}
	}
	// Column value sanity.
	row, err := tab.Fetch(mustFirstRID(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	if row[0].T != expr.TypeInt || row[3].T != expr.TypeFloat || row[4].T != expr.TypeString {
		t.Fatalf("types wrong: %v", row)
	}
}

func mustFirstRID(t *testing.T, tab *catalog.Table) storage.RID {
	t.Helper()
	c := tab.Heap.Cursor()
	_, rid, ok, err := c.Next()
	if err != nil || !ok {
		t.Fatal("no rows")
	}
	return rid
}

func TestZipfIsSkewed(t *testing.T) {
	z := &Zipf{S: 1.5, V: 1, N: 1000}
	rng := rand.New(rand.NewSource(5))
	counts := map[int64]int{}
	for i := 0; i < 20000; i++ {
		counts[z.Next(rng, nil).I]++
	}
	if counts[0] < counts[100]*5 {
		t.Fatalf("Zipf not skewed: hot=%d cold=%d", counts[0], counts[100])
	}
}

func TestSeqAndShuffleControlClustering(t *testing.T) {
	mk := func(shuffle bool) float64 {
		spec := TableSpec{
			Name:    "T",
			Rows:    3000,
			Columns: []ColumnSpec{{Name: "ID", Gen: &Seq{}}, {Name: "P", Gen: Pad{Len: 40}}},
			Indexes: [][]string{{"ID"}},
			Shuffle: shuffle,
			Seed:    9,
		}
		tab, err := Build(newCat(), spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tab.Indexes[0].EstimateClusterRatio(rand.New(rand.NewSource(1)), 200)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if c := mk(false); c < 0.9 {
		t.Fatalf("sequential load cluster ratio %v, want ~1", c)
	}
	if c := mk(true); c > 0.5 {
		t.Fatalf("shuffled load cluster ratio %v, want low", c)
	}
}

func TestCorrelatedColumns(t *testing.T) {
	spec := TableSpec{
		Name: "T",
		Rows: 2000,
		Columns: []ColumnSpec{
			{Name: "A", Gen: Uniform{Lo: 0, Hi: 1000}},
			{Name: "B", Gen: Correlated{Source: 0, Noise: 5}},
			{Name: "C", Gen: Correlated{Source: 0, Noise: 0}},
		},
		Seed: 11,
	}
	tab, err := Build(newCat(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cur := tab.Heap.Cursor()
	for {
		rec, _, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		row, err := expr.DecodeRow(rec)
		if err != nil {
			t.Fatal(err)
		}
		if d := row[1].I - row[0].I; d < -5 || d > 5 {
			t.Fatalf("noise out of range: %d", d)
		}
		if row[2].I != row[0].I {
			t.Fatal("exact correlation broken")
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(newCat(), TableSpec{Name: "T", Rows: -1}); err == nil {
		t.Fatal("negative rows accepted")
	}
	cat := newCat()
	spec := TableSpec{Name: "T", Rows: 1, Columns: []ColumnSpec{{Name: "A", Gen: &Seq{}}}}
	if _, err := Build(cat, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(cat, spec); err == nil {
		t.Fatal("duplicate table accepted")
	}
}
