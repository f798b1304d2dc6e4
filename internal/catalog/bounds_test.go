package catalog

import (
	"math/rand"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// boundsTable builds a table with a composite (A, B) index and
// 10x10 rows covering every (A, B) pair in [0,10)x[0,10).
func boundsTable(t *testing.T) (*Table, *Index) {
	t.Helper()
	cat := New(storage.NewBufferPool(storage.NewDisk(4096), 0))
	tab, err := cat.CreateTable("G", []Column{
		{Name: "A", Type: expr.TypeInt},
		{Name: "B", Type: expr.TypeInt},
		{Name: "C", Type: expr.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := tab.CreateIndex("AB", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 10; b++ {
			if _, err := tab.Insert(expr.Row{expr.Int(a), expr.Int(b), expr.Int(a + b)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab, ix
}

// countBounds scans the index between the bounds and counts entries.
func countBounds(t *testing.T, ix *Index, lo, hi []byte) int {
	t.Helper()
	c, err := ix.Tree.Seek(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	num := 0
	for {
		_, _, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return num
		}
		num++
	}
}

func cmpOn(tab *Table, t *testing.T, col string, op expr.CmpOp, v int64) expr.Expr {
	t.Helper()
	ci, err := tab.ColumnIndex(col)
	if err != nil {
		t.Fatal(err)
	}
	return expr.NewCmp(op, expr.Col(ci, col), expr.Lit(expr.Int(v)))
}

func TestRestrictionBoundsLeadingRange(t *testing.T) {
	tab, ix := boundsTable(t)
	e := cmpOn(tab, t, "A", expr.LT, 3)
	lo, hi, n, empty := ix.RestrictionBounds(e, nil)
	if n != 1 || empty {
		t.Fatalf("n=%d empty=%v", n, empty)
	}
	if got := countBounds(t, ix, lo, hi); got != 30 {
		t.Fatalf("A<3 scanned %d entries, want 30", got)
	}
}

func TestRestrictionBoundsEqualityPrefixPlusRange(t *testing.T) {
	tab, ix := boundsTable(t)
	e := expr.NewAnd(
		cmpOn(tab, t, "A", expr.EQ, 4),
		cmpOn(tab, t, "B", expr.GE, 7),
	)
	lo, hi, n, empty := ix.RestrictionBounds(e, nil)
	if n != 2 || empty {
		t.Fatalf("n=%d empty=%v", n, empty)
	}
	// A=4 AND B>=7: exactly 3 entries (B in {7,8,9}).
	if got := countBounds(t, ix, lo, hi); got != 3 {
		t.Fatalf("scanned %d entries, want 3", got)
	}
}

func TestRestrictionBoundsFullPointKey(t *testing.T) {
	tab, ix := boundsTable(t)
	e := expr.NewAnd(
		cmpOn(tab, t, "A", expr.EQ, 2),
		cmpOn(tab, t, "B", expr.EQ, 5),
	)
	lo, hi, n, empty := ix.RestrictionBounds(e, nil)
	if n != 2 || empty {
		t.Fatalf("n=%d empty=%v", n, empty)
	}
	if got := countBounds(t, ix, lo, hi); got != 1 {
		t.Fatalf("scanned %d entries, want 1", got)
	}
}

func TestRestrictionBoundsPrefixOnly(t *testing.T) {
	tab, ix := boundsTable(t)
	// Only A pinned; B unrestricted: 10 entries under the prefix.
	e := cmpOn(tab, t, "A", expr.EQ, 9)
	lo, hi, n, empty := ix.RestrictionBounds(e, nil)
	if n != 1 || empty {
		t.Fatalf("n=%d empty=%v", n, empty)
	}
	if got := countBounds(t, ix, lo, hi); got != 10 {
		t.Fatalf("scanned %d entries, want 10", got)
	}
}

func TestRestrictionBoundsSecondColumnOnlyIsUnsargable(t *testing.T) {
	tab, ix := boundsTable(t)
	// A restriction only on B cannot bound an (A, B) scan.
	e := cmpOn(tab, t, "B", expr.EQ, 5)
	lo, hi, n, _ := ix.RestrictionBounds(e, nil)
	if n != 0 || lo != nil || hi != nil {
		t.Fatalf("n=%d lo=%v hi=%v, want open", n, lo, hi)
	}
}

func TestRestrictionBoundsEmptyDetected(t *testing.T) {
	tab, ix := boundsTable(t)
	e := expr.NewAnd(
		cmpOn(tab, t, "A", expr.EQ, 4),
		expr.NewAnd(cmpOn(tab, t, "B", expr.GT, 8), cmpOn(tab, t, "B", expr.LT, 3)),
	)
	_, _, _, empty := ix.RestrictionBounds(e, nil)
	if !empty {
		t.Fatal("contradictory second column not detected")
	}
}

func TestRestrictionBoundsExclusiveEdges(t *testing.T) {
	tab, ix := boundsTable(t)
	e := expr.NewAnd(
		cmpOn(tab, t, "A", expr.EQ, 4),
		cmpOn(tab, t, "B", expr.GT, 2),
		cmpOn(tab, t, "B", expr.LE, 6),
	)
	lo, hi, _, empty := ix.RestrictionBounds(e, nil)
	if empty {
		t.Fatal("range is not empty")
	}
	// B in (2, 6]: {3,4,5,6} = 4 entries.
	if got := countBounds(t, ix, lo, hi); got != 4 {
		t.Fatalf("scanned %d entries, want 4", got)
	}
}

func TestRestrictionBoundsWithParams(t *testing.T) {
	tab, ix := boundsTable(t)
	aCol, _ := tab.ColumnIndex("A")
	bCol, _ := tab.ColumnIndex("B")
	e := expr.NewAnd(
		expr.NewCmp(expr.EQ, expr.Col(aCol, "A"), expr.Var("PA")),
		expr.NewCmp(expr.LT, expr.Col(bCol, "B"), expr.Var("PB")),
	)
	lo, hi, n, empty := ix.RestrictionBounds(e, expr.Bindings{"PA": expr.Int(1), "PB": expr.Int(4)})
	if n != 2 || empty {
		t.Fatalf("n=%d empty=%v", n, empty)
	}
	if got := countBounds(t, ix, lo, hi); got != 4 {
		t.Fatalf("scanned %d entries, want 4 (A=1, B<4)", got)
	}
	// Unbound: nothing sargable.
	_, _, n, _ = ix.RestrictionBounds(e, nil)
	if n != 0 {
		t.Fatalf("unbound params must not be sargable, n=%d", n)
	}
}

// TestRestrictionBoundsEmptyImpliesSargable is the property the planners
// lean on: a range is reported empty only after some conjunct bounded
// it (empty ⇒ sargable > 0), and an empty range holds no matching row.
// Restrictions are random conjunctions over both key columns and the
// unindexed C, with unbound parameters and ORs mixed in.
func TestRestrictionBoundsEmptyImpliesSargable(t *testing.T) {
	tab, ix := boundsTable(t)
	ops := []expr.CmpOp{expr.EQ, expr.LT, expr.LE, expr.GT, expr.GE, expr.NE}
	cols := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(5))
	term := func() expr.Expr {
		col := cols[rng.Intn(len(cols))]
		ci, _ := tab.ColumnIndex(col)
		switch rng.Intn(6) {
		case 0:
			return expr.NewCmp(ops[rng.Intn(len(ops))], expr.Col(ci, col), expr.Var("UNBOUND"))
		case 1:
			return expr.NewOr(cmpOn(tab, t, col, expr.LT, rng.Int63n(12)-1), cmpOn(tab, t, col, expr.GT, rng.Int63n(12)-1))
		default:
			return cmpOn(tab, t, col, ops[rng.Intn(len(ops))], rng.Int63n(12)-1)
		}
	}
	empties := 0
	for i := 0; i < 3000; i++ {
		kids := make([]expr.Expr, 1+rng.Intn(4))
		for k := range kids {
			kids[k] = term()
		}
		e := expr.NewAnd(kids...)
		_, _, n, empty := ix.RestrictionBounds(e, nil)
		if !empty {
			continue
		}
		empties++
		if n == 0 {
			t.Fatalf("%s: empty with no sargable conjunct", e)
		}
		for a := int64(0); a < 10; a++ {
			for b := int64(0); b < 10; b++ {
				if keep, err := expr.EvalPred(e, expr.Row{expr.Int(a), expr.Int(b), expr.Int(a + b)}, nil); err == nil && keep {
					t.Fatalf("%s: reported empty, but (%d, %d) matches", e, a, b)
				}
			}
		}
	}
	if empties == 0 {
		t.Fatal("no empty range generated; the property went unexercised")
	}
}
