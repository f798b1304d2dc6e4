package engine

import (
	"context"
	"strings"
	"testing"
)

func TestOrderByDescWithIndex(t *testing.T) {
	db := newDB(t, 5000)
	res, err := db.QueryContext(context.Background(), "SELECT AGE FROM FAMILIES WHERE AGE >= 10 ORDER BY AGE DESC LIMIT 50", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][0].I > rows[i-1][0].I {
			t.Fatalf("not descending at %d: %v after %v", i, rows[i][0], rows[i-1][0])
		}
	}
	// The top value must be the global max within the range.
	maxRes, err := db.QueryContext(context.Background(), "SELECT MAX(AGE) FROM FAMILIES WHERE AGE >= 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	mr, _ := maxRes.All()
	if rows[0][0].I != mr[0][0].I {
		t.Fatalf("DESC first row %v != MAX %v", rows[0][0], mr[0][0])
	}
}

func TestOrderByDescIndexIsCheapForTopK(t *testing.T) {
	db := newDB(t, 20000)
	db.Pool().EvictAll()
	db.Pool().ResetStats()
	res, err := db.QueryContext(context.Background(), "SELECT AGE FROM FAMILIES ORDER BY AGE DESC LIMIT 5 OPTIMIZE FOR FAST FIRST", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	tab, _ := db.Catalog().Table("FAMILIES")
	if c := db.Pool().Stats().IOCost(); c > int64(tab.Pages())/4 {
		t.Fatalf("top-k DESC through the index cost %d I/Os (pages %d): %q",
			c, tab.Pages(), res.Stats().Strategy)
	}
}

func TestOrderByDescSortFallback(t *testing.T) {
	db := newDB(t, 2000)
	// INCOME has no index: materialize-and-sort, descending.
	res, err := db.QueryContext(context.Background(), "SELECT INCOME FROM FAMILIES WHERE AGE < 50 ORDER BY INCOME DESC", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][0].Float() > rows[i-1][0].Float() {
			t.Fatalf("sort fallback not descending at %d", i)
		}
	}
	if !strings.HasPrefix(res.Stats().Tactic, "sort(") {
		t.Fatalf("tactic = %s", res.Stats().Tactic)
	}
}

func TestMixedDirectionsRejected(t *testing.T) {
	db := newDB(t, 10)
	if _, err := db.PrepareContext(context.Background(), "SELECT * FROM FAMILIES ORDER BY AGE ASC, ID DESC"); err == nil {
		t.Fatal("mixed directions accepted")
	}
}

func TestDescMatchesAscReversedThroughAllPaths(t *testing.T) {
	db := newDB(t, 3000)
	asc, err := db.QueryContext(context.Background(), "SELECT ID, AGE FROM FAMILIES WHERE AGE BETWEEN 10 AND 30 ORDER BY AGE", nil)
	if err != nil {
		t.Fatal(err)
	}
	up, err := asc.All()
	if err != nil {
		t.Fatal(err)
	}
	desc, err := db.QueryContext(context.Background(), "SELECT ID, AGE FROM FAMILIES WHERE AGE BETWEEN 10 AND 30 ORDER BY AGE DESC", nil)
	if err != nil {
		t.Fatal(err)
	}
	down, err := desc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != len(down) {
		t.Fatalf("row counts differ: %d vs %d", len(up), len(down))
	}
	// The AGE sequences must mirror (ties may permute IDs).
	for i := range up {
		if up[i][1].I != down[len(down)-1-i][1].I {
			t.Fatalf("AGE mirror broken at %d", i)
		}
	}
}
