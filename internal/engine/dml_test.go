package engine

import (
	"context"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
)

func dmlDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Options{})
	_, err := db.CreateTable("T",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "NAME", Type: expr.TypeString},
		catalog.Column{Name: "SCORE", Type: expr.TypeFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("T", "ID_IX", "ID"); err != nil {
		t.Fatal(err)
	}
	return db
}

func countRows(t *testing.T, db *DB, src string) int64 {
	t.Helper()
	res, err := db.QueryContext(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	return rows[0][0].I
}

func TestInsertStatement(t *testing.T) {
	db := dmlDB(t)
	n, err := db.Exec("INSERT INTO T VALUES (1, 'alice', 9.5), (2, 'bob', 7.25)", nil)
	if err != nil || n != 2 {
		t.Fatalf("insert: %d, %v", n, err)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM T"); got != 2 {
		t.Fatalf("count = %d", got)
	}
	res, err := db.QueryContext(context.Background(), "SELECT NAME FROM T WHERE ID = 2", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := res.All()
	if len(rows) != 1 || rows[0][0].S != "bob" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestInsertWithParams(t *testing.T) {
	db := dmlDB(t)
	n, err := db.Exec("INSERT INTO T VALUES (:id, :name, :s)", Binds{"id": 7, "name": "carol", "s": 1.0})
	if err != nil || n != 1 {
		t.Fatalf("insert: %d, %v", n, err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (:missing, 'x', 0.0)", nil); err == nil {
		t.Fatal("unbound parameter accepted")
	}
}

func TestInsertTypeChecked(t *testing.T) {
	db := dmlDB(t)
	if _, err := db.Exec("INSERT INTO T VALUES ('oops', 'x', 1.0)", nil); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := db.Exec("INSERT INTO T VALUES (1, 'x')", nil); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestDeleteStatementMaintainsIndexes(t *testing.T) {
	db := dmlDB(t)
	for i := 0; i < 100; i++ {
		if _, err := db.Exec("INSERT INTO T VALUES (:i, 'n', 0.5)", Binds{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := db.Exec("DELETE FROM T WHERE ID < 40", nil)
	if err != nil || n != 40 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM T"); got != 60 {
		t.Fatalf("count after delete = %d", got)
	}
	// The index must agree (query through it).
	res, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM T WHERE ID < 50", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := res.All()
	if rows[0][0].I != 10 {
		t.Fatalf("indexed count = %d, want 10", rows[0][0].I)
	}
	tab, _ := db.Catalog().Table("T")
	if tab.Indexes[0].Tree.Len() != 60 {
		t.Fatalf("index entries = %d, want 60", tab.Indexes[0].Tree.Len())
	}
}

func TestDeleteWithParamsAndAll(t *testing.T) {
	db := dmlDB(t)
	for i := 0; i < 20; i++ {
		db.Exec("INSERT INTO T VALUES (:i, 'n', 0.5)", Binds{"i": i})
	}
	n, err := db.Exec("DELETE FROM T WHERE ID >= :lo", Binds{"lo": 15})
	if err != nil || n != 5 {
		t.Fatalf("param delete: %d, %v", n, err)
	}
	n, err = db.Exec("DELETE FROM T", nil)
	if err != nil || n != 15 {
		t.Fatalf("delete all: %d, %v", n, err)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM T"); got != 0 {
		t.Fatalf("count = %d", got)
	}
}

func TestExecRejectsSelect(t *testing.T) {
	db := dmlDB(t)
	if _, err := db.Exec("SELECT * FROM T", nil); err == nil {
		t.Fatal("SELECT through Exec accepted")
	}
}

func TestDMLParseErrors(t *testing.T) {
	db := dmlDB(t)
	for _, src := range []string{
		"INSERT T VALUES (1)",
		"INSERT INTO T (1)",
		"INSERT INTO T VALUES 1",
		"INSERT INTO T VALUES (1,)",
		"INSERT INTO T VALUES (ID, 'x', 1.0)", // column ref not allowed
		"DELETE T",
		"DELETE FROM T WHERE",
		"DELETE FROM MISSING",
	} {
		if _, err := db.Exec(src, nil); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestUpdateStatement(t *testing.T) {
	db := dmlDB(t)
	for i := 0; i < 50; i++ {
		db.Exec("INSERT INTO T VALUES (:i, 'n', 1.0)", Binds{"i": i})
	}
	n, err := db.Exec("UPDATE T SET SCORE = 9.9, NAME = 'hot' WHERE ID < 10", nil)
	if err != nil || n != 10 {
		t.Fatalf("update: %d, %v", n, err)
	}
	res, err := db.QueryContext(context.Background(), "SELECT NAME, SCORE FROM T WHERE ID = 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := res.All()
	if rows[0][0].S != "hot" || rows[0][1].Float() != 9.9 {
		t.Fatalf("updated row = %v", rows[0])
	}
	// Untouched rows stay.
	res2, _ := db.QueryContext(context.Background(), "SELECT NAME FROM T WHERE ID = 20", nil)
	rows, _ = res2.All()
	if rows[0][0].S != "n" {
		t.Fatalf("untouched row = %v", rows[0])
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	db := dmlDB(t)
	for i := 0; i < 50; i++ {
		db.Exec("INSERT INTO T VALUES (:i, 'n', 1.0)", Binds{"i": i})
	}
	// Move IDs 0..9 to 1000..1009: the ID index must follow.
	n, err := db.Exec("UPDATE T SET ID = :new WHERE ID = :old", Binds{"new": 1000, "old": 0})
	if err != nil || n != 1 {
		t.Fatalf("update: %d, %v", n, err)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM T WHERE ID = 1000"); got != 1 {
		t.Fatalf("moved row not found via index: %d", got)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM T WHERE ID = 0"); got != 0 {
		t.Fatalf("old key still matches: %d", got)
	}
	tab, _ := db.Catalog().Table("T")
	if tab.Indexes[0].Tree.Len() != 50 {
		t.Fatalf("index entries = %d, want 50", tab.Indexes[0].Tree.Len())
	}
}

func TestUpdateWithParamsAndErrors(t *testing.T) {
	db := dmlDB(t)
	db.Exec("INSERT INTO T VALUES (1, 'n', 1.0)", nil)
	if _, err := db.Exec("UPDATE T SET SCORE = :missing", nil); err == nil {
		t.Fatal("unbound param accepted")
	}
	if _, err := db.Exec("UPDATE T SET NOPE = 1", nil); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := db.Exec("UPDATE T SET ID = 'oops'", nil); err == nil {
		t.Fatal("type mismatch accepted")
	}
	for _, src := range []string{
		"UPDATE T SCORE = 1",
		"UPDATE T SET SCORE",
		"UPDATE T SET SCORE = ID", // column ref not allowed
		"UPDATE T SET SCORE = 1 WHERE",
	} {
		if _, err := db.Exec(src, nil); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestUpdateSelfMatchingDoesNotLoop(t *testing.T) {
	// UPDATE that makes rows match its own WHERE clause again must
	// still update each row exactly once.
	db := dmlDB(t)
	for i := 0; i < 10; i++ {
		db.Exec("INSERT INTO T VALUES (:i, 'n', 1.0)", Binds{"i": i})
	}
	n, err := db.Exec("UPDATE T SET SCORE = 2.0 WHERE SCORE >= 1.0", nil)
	if err != nil || n != 10 {
		t.Fatalf("update: %d, %v", n, err)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM T WHERE SCORE = 2.0"); got != 10 {
		t.Fatalf("count = %d", got)
	}
}
