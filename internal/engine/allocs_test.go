package engine

import (
	"errors"
	"fmt"
	"testing"

	"rdbdyn/internal/expr"
)

// raceEnabled is set by raceon_test.go when the race detector is on.
var raceEnabled bool

// TestAllocsMatchingRIDsRejectedRows: the DML victim retrieval needs no
// row at all — over rows its restriction rejects (no index bounds it, so
// a Tscan decides every record) it allocates a constant amount (the
// retrieval, its filter, column set, scratch view, cursor and trace),
// nothing per row.
func TestAllocsMatchingRIDsRejectedRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	db := dmlDB(t)
	const rows = 3000
	for i := 0; i < rows; i++ {
		if err := db.Insert("T", i, fmt.Sprintf("name-%d", i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := db.cat.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	// NAME is read (a string), nothing passes.
	none := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col(1, "NAME"), expr.Lit(expr.Str("name-"))),
		expr.NewCmp(expr.LT, expr.Col(2, "SCORE"), expr.Var("LO")),
	)
	binds := expr.Bindings{"LO": expr.Float(0)}
	if n := testing.AllocsPerRun(5, func() {
		if victims, err := db.victims(tab, none, binds); err != nil || len(victims) != 0 {
			t.Fatal(len(victims), err)
		}
	}); n > 40 {
		t.Fatalf("victims over %d rejected rows: %v allocations, want a constant few", rows, n)
	}
	// Deciding on the record still validates all of it.
	if _, err := tab.Heap.Insert(append(expr.EncodeRow(expr.Row{expr.Int(-1), expr.Str("x"), expr.Float(0)}), 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.victims(tab, none, binds); !errors.Is(err, expr.ErrCorruptRecord) {
		t.Fatalf("corrupt record behind a rejecting restriction: %v", err)
	}
}
