package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
)

func aggDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Options{})
	_, err := db.CreateTable("T",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "V", Type: expr.TypeInt},
		catalog.Column{Name: "F", Type: expr.TypeFloat},
		catalog.Column{Name: "S", Type: expr.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("T", "ID_IX", "ID"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := db.Insert("T", i, i*2, float64(i)/2, "s"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func oneValue(t *testing.T, db *DB, src string) expr.Value {
	t.Helper()
	res, err := db.QueryContext(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("aggregate returned %v", rows)
	}
	return rows[0][0]
}

func TestAggregates(t *testing.T) {
	db := aggDB(t)
	if v := oneValue(t, db, "SELECT SUM(V) FROM T"); v.I != 10100 {
		t.Fatalf("SUM = %v", v)
	}
	if v := oneValue(t, db, "SELECT MIN(V) FROM T"); v.I != 2 {
		t.Fatalf("MIN = %v", v)
	}
	if v := oneValue(t, db, "SELECT MAX(V) FROM T"); v.I != 200 {
		t.Fatalf("MAX = %v", v)
	}
	if v := oneValue(t, db, "SELECT AVG(V) FROM T"); math.Abs(v.Float()-101) > 1e-9 {
		t.Fatalf("AVG = %v", v)
	}
	// Float column keeps float type.
	if v := oneValue(t, db, "SELECT SUM(F) FROM T"); v.T != expr.TypeFloat || math.Abs(v.Float()-2525) > 1e-9 {
		t.Fatalf("SUM(F) = %v", v)
	}
	// Restricted aggregate.
	if v := oneValue(t, db, "SELECT SUM(V) FROM T WHERE ID <= 3"); v.I != 12 {
		t.Fatalf("restricted SUM = %v", v)
	}
	// SUM over INT is exact beyond float64's integers, and overflow is
	// an error, not a wrapped or rounded total.
	if _, err := db.CreateTable("BIG", catalog.Column{Name: "V", Type: expr.TypeInt}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{1 << 53, 1, 1} {
		if err := db.Insert("BIG", v); err != nil {
			t.Fatal(err)
		}
	}
	if v := oneValue(t, db, "SELECT SUM(V) FROM BIG"); v.T != expr.TypeInt || v.I != 1<<53+2 {
		t.Fatalf("SUM over 2^53, 1, 1 = %v, want %d", v, int64(1<<53+2))
	}
	if err := db.Insert("BIG", int64(math.MaxInt64-1<<53)); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), "SELECT SUM(V) FROM BIG", nil)
	if err == nil {
		_, err = res.All()
	}
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("overflowing SUM: err = %v", err)
	}
	// Empty input -> NULL.
	if v := oneValue(t, db, "SELECT MAX(V) FROM T WHERE ID > 1000"); !v.IsNull() {
		t.Fatalf("empty MAX = %v", v)
	}
	// Aggregates infer the total-time goal.
	stmt, err := db.PrepareContext(context.Background(), "SELECT SUM(V) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if g := stmt.CoreQuery().EffectiveGoal().String(); g != "TOTAL TIME" {
		t.Fatalf("goal = %s", g)
	}
}

func TestAggregateColumnHeader(t *testing.T) {
	db := aggDB(t)
	res, err := db.QueryContext(context.Background(), "SELECT MIN(V) FROM T", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Columns(); got[0] != "MIN(V)" {
		t.Fatalf("header = %v", got)
	}
	res.Close()
}

func TestAggregateErrors(t *testing.T) {
	db := aggDB(t)
	for _, src := range []string{
		"SELECT SUM(S) FROM T",    // non-numeric column
		"SELECT SUM(NOPE) FROM T", // unknown column
		"SELECT SUM(V FROM T",
		"EXISTS(SELECT SUM(V) FROM T)",
	} {
		if _, err := db.QueryContext(context.Background(), src, nil); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestInAndBetween(t *testing.T) {
	db := aggDB(t)
	res, err := db.QueryContext(context.Background(), "SELECT ID FROM T WHERE ID IN (3, 5, 999)", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("IN returned %d rows", len(rows))
	}
	// IN over an indexed column resolves via the union scan.
	if !strings.Contains(res.Stats().Strategy, "Uscan") {
		t.Fatalf("IN strategy = %q", res.Stats().Strategy)
	}
	res2, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM T WHERE ID BETWEEN 10 AND 19", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ = res2.All()
	if rows[0][0].I != 10 {
		t.Fatalf("BETWEEN count = %v", rows[0][0])
	}
	// NOT IN / NOT BETWEEN.
	res3, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM T WHERE ID NOT IN (1, 2)", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ = res3.All()
	if rows[0][0].I != 98 {
		t.Fatalf("NOT IN count = %v", rows[0][0])
	}
	res4, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM T WHERE ID NOT BETWEEN 1 AND 90", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ = res4.All()
	if rows[0][0].I != 10 {
		t.Fatalf("NOT BETWEEN count = %v", rows[0][0])
	}
	// Parameters inside IN.
	res5, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM T WHERE ID IN (:a, :b)", Binds{"a": 7, "b": 8})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ = res5.All()
	if rows[0][0].I != 2 {
		t.Fatalf("param IN count = %v", rows[0][0])
	}
}

func TestInBetweenParseErrors(t *testing.T) {
	db := aggDB(t)
	for _, src := range []string{
		"SELECT * FROM T WHERE ID IN ()",
		"SELECT * FROM T WHERE ID IN (1",
		"SELECT * FROM T WHERE ID IN (V)", // column ref in list
		"SELECT * FROM T WHERE ID BETWEEN 1",
		"SELECT * FROM T WHERE ID NOT 5",
	} {
		if _, err := db.PrepareContext(context.Background(), src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}
