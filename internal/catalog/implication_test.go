package catalog

import (
	"errors"
	"math/rand"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// nullsTable holds 2000 rows, A NULL in every tenth and else uniform
// over 0..99 (18 rows a value), with an index on A — on pages large
// enough that a 180-entry range lies within two leaves, where the
// refined estimator counts instead of extrapolating.
func nullsTable(t *testing.T) (*Table, *Index) {
	t.Helper()
	cat := New(storage.NewBufferPool(storage.NewDisk(16384), 0))
	tab, err := cat.CreateTable("N", []Column{{Name: "ID", Type: expr.TypeInt}, {Name: "A", Type: expr.TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := tab.CreateIndex("A_IX", "A")
	if err != nil {
		t.Fatal(err)
	}
	for i, k := 0, 0; i < 2000; i++ {
		a := expr.Null()
		if i%10 != 0 {
			a = expr.Int(int64(k % 100))
			k++
		}
		if _, err := tab.Insert(expr.Row{expr.Int(int64(i)), a}); err != nil {
			t.Fatal(err)
		}
	}
	return tab, ix
}

// TestUpperBoundOnlyRangeSkipsNulls: a NULL satisfies no comparison, so
// a range with only an upper bound starts after the NULL keys — scanned
// and estimated as 180 entries, not 380 — alone and behind an equality
// prefix.
func TestUpperBoundOnlyRangeSkipsNulls(t *testing.T) {
	tab, ix := nullsTable(t)
	for _, op := range []expr.CmpOp{expr.LT, expr.LE} {
		lo, hi, n, empty := ix.RestrictionBounds(cmpOn(tab, t, "A", op, 10-int64(op-expr.LT)), nil)
		if n != 1 || empty || lo == nil {
			t.Fatalf("op %v: n=%d empty=%v lo=%x", op, n, empty, lo)
		}
		if got := countBounds(t, ix, lo, hi); got != 180 {
			t.Errorf("op %v: scanned %d entries, want 180", op, got)
		}
		if est, exact, err := ix.Tree.EstimateRangeRefined(lo, hi); err != nil || est != 180 || !exact {
			t.Errorf("op %v: estimate %v (exact %v, %v), want exactly 180", op, est, exact, err)
		}
	}

	btab, ab := boundsTable(t) // every (A, B) in [0,10)x[0,10); add NULL Bs under A = 3
	for i := 0; i < 5; i++ {
		if _, err := btab.Insert(expr.Row{expr.Int(3), expr.Null(), expr.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	e := expr.NewAnd(cmpOn(btab, t, "A", expr.EQ, 3), cmpOn(btab, t, "B", expr.LT, 4))
	lo, hi, _, _ := ab.RestrictionBounds(e, nil)
	if got := countBounds(t, ab, lo, hi); got != 4 {
		t.Errorf("A=3 AND B<4 scanned %d entries, want 4", got)
	}
}

// implicationTable has small-domain INT columns A, B, C and a STRING S,
// NULLs included, under single- and two-column indexes.
func implicationTable(t *testing.T) *Table {
	t.Helper()
	cat := New(storage.NewBufferPool(storage.NewDisk(4096), 0))
	tab, err := cat.CreateTable("P", []Column{
		{Name: "A", Type: expr.TypeInt}, {Name: "B", Type: expr.TypeInt},
		{Name: "S", Type: expr.TypeString}, {Name: "C", Type: expr.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range [][]string{{"IX_A", "A"}, {"IX_AB", "A", "B"}, {"IX_SA", "S", "A"}, {"IX_B", "B"}} {
		if _, err := tab.CreateIndex(spec[0], spec[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	num := func(i int) expr.Value {
		if i == 0 {
			return expr.Null()
		}
		return expr.Int(int64(i - 2)) // -1..3
	}
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			for s := 0; s < 4; s++ {
				sv := expr.Null()
				if s > 0 {
					sv = expr.Str(string(rune('a' + s - 1)))
				}
				if _, err := tab.Insert(expr.Row{num(a), num(b), sv, expr.Int(int64(a + b))}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tab
}

// TestKeyRestrictionImplicationIsSound: over random AND-trees and binds
// — INTs, FLOATs against INT columns, an INT past float64's exact range,
// NULLs, type-mismatched and unbound ones — for every entry of the range
// RestrictionBounds chose, the reduced key filter (KeyRestriction) gives
// the verdict and the errors.Is class of the full one: what the range
// implies is dropped, and a comparison that must fail still fails. The
// range itself loses nothing: no entry outside it passes the full filter.
func TestKeyRestrictionImplicationIsSound(t *testing.T) {
	tab := implicationTable(t)
	rng := rand.New(rand.NewSource(20261001))
	operand := func() expr.Expr {
		var v expr.Value
		switch rng.Intn(12) {
		case 0:
			return expr.Var("MISSING")
		case 1:
			return expr.Var([]string{"P", "Q"}[rng.Intn(2)])
		case 2:
			v = expr.Null()
		case 3:
			v = expr.Str(string(rune('a' + rng.Intn(3))))
		case 4:
			v = expr.Float(float64(rng.Intn(4)) - 0.5)
		case 5:
			v = expr.Float(float64(rng.Intn(4)))
		case 6:
			v = expr.Int([]int64{1 << 53, -1 << 53, 1<<53 - 1}[rng.Intn(3)])
		default:
			v = expr.Int(int64(rng.Intn(6) - 2))
		}
		return expr.Lit(v)
	}
	cmp := func() expr.Expr {
		col := rng.Intn(4)
		l, r := expr.Expr(expr.Col(col, tab.Columns[col].Name)), operand()
		if rng.Intn(4) == 0 {
			l, r = r, l
		}
		if rng.Intn(12) == 0 {
			r = expr.Col(rng.Intn(4), "") // column against column
		}
		return expr.NewCmp(expr.CmpOp(rng.Intn(6)), l, r)
	}
	conjunct := func() expr.Expr {
		switch rng.Intn(10) {
		case 0:
			return expr.NewOr(cmp(), cmp())
		case 1:
			return expr.NewNot(cmp())
		case 2:
			return &expr.And{Kids: []expr.Expr{cmp(), cmp()}} // nested, unflattened
		}
		return cmp()
	}
	classOf := func(err error) error {
		for _, class := range []error{expr.ErrUnboundParam, expr.ErrTypeMismatch, expr.ErrNotBoolean, expr.ErrColumnMissing} {
			if errors.Is(err, class) {
				return class
			}
		}
		if err != nil {
			t.Fatalf("error outside the evaluation classes: %v", err)
		}
		return nil
	}

	var dropped, emptied, inRange, failed int
	for i := 0; i < 3000; i++ {
		kids := make([]expr.Expr, 1+rng.Intn(4))
		for k := range kids {
			kids[k] = conjunct()
		}
		e := expr.Expr(&expr.And{Kids: kids})
		binds := expr.Bindings{}
		for _, name := range []string{"P", "Q"} {
			if rng.Intn(5) != 0 {
				binds[name] = []expr.Value{expr.Int(int64(rng.Intn(4))), expr.Float(1.5), expr.Null(), expr.Str("b")}[rng.Intn(4)]
			}
		}
		for _, ix := range tab.Indexes {
			lo, hi, _, empty := ix.RestrictionBounds(e, binds)
			if empty {
				continue
			}
			var local []expr.Expr
			for _, cj := range expr.Conjuncts(e) {
				if ix.Covers(expr.Columns(cj)) {
					local = append(local, cj)
				}
			}
			reducedExpr := ix.KeyRestriction(e, binds)
			full, reduced := expr.NewFilter(expr.NewAnd(local...), binds), expr.NewFilter(reducedExpr, binds)
			if n := len(expr.Conjuncts(reducedExpr)); n < len(local) {
				dropped++
				if n == 0 {
					emptied++
				}
			}
			cur, err := ix.Tree.Seek(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for {
				key, _, ok, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				row, err := ix.DecodeEntry(key, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := full.Eval(row)
				if (lo != nil && expr.CompareKeys(key, lo) < 0) || (hi != nil && expr.CompareKeys(key, hi) >= 0) {
					if want {
						t.Fatalf("%s under %v: %s leaves out the passing entry %v", e, binds, ix.Name, row)
					}
					continue
				}
				inRange++
				if wantErr != nil {
					failed++
				}
				if got, gotErr := reduced.Eval(row); got != want || classOf(gotErr) != classOf(wantErr) {
					t.Fatalf("%s under %v, %s entry %v:\n reduced %s: %v, %v\n full    %s: %v, %v",
						e, binds, ix.Name, row, reducedExpr, got, gotErr, expr.NewAnd(local...), want, wantErr)
				}
			}
		}
	}
	if dropped < 500 || emptied < 200 || inRange < 10000 || failed < 500 {
		t.Errorf("generator: %d reduced filters (%d to nothing), %d entries in range, %d of them failing", dropped, emptied, inRange, failed)
	}
}
