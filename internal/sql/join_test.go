package sql

import (
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

func joinCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(4096), 0))
	if _, err := cat.CreateTable("CUST", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "SEG", Type: expr.TypeInt},
		{Name: "NAME", Type: expr.TypeString},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("ORD", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "CUST", Type: expr.TypeInt},
		{Name: "QTY", Type: expr.TypeInt},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("ITEM", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "KIND", Type: expr.TypeInt},
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestParseJoinGrammar(t *testing.T) {
	stmt, err := Parse("SELECT CUST.NAME, ORD.QTY FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE CUST.SEG = 0 ORDER BY ORD.QTY")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Table != "CUST" {
		t.Fatalf("Table = %q, want CUST (back-compat first table)", stmt.Table)
	}
	if len(stmt.Tables) != 2 || stmt.Tables[1] != "ORD" {
		t.Fatalf("Tables = %v", stmt.Tables)
	}
	// ON and WHERE conjuncts merge into one AND.
	and, ok := stmt.Where.(AndNode)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("Where = %+v", stmt.Where)
	}
	if len(stmt.OrderBy) != 1 || stmt.OrderBy[0] != "ORD.QTY" {
		t.Fatalf("OrderBy = %v", stmt.OrderBy)
	}
}

func TestParseCommaJoinAndInner(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM CUST, ORD WHERE CUST.ID = ORD.CUST",
		"SELECT * FROM CUST INNER JOIN ORD ON CUST.ID = ORD.CUST",
		"SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if len(stmt.Tables) != 2 {
			t.Fatalf("%q: Tables = %v", src, stmt.Tables)
		}
	}
	// Three tables, chained JOINs.
	stmt, err := Parse("SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST JOIN ITEM ON ORD.ID = ITEM.ID")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Tables) != 3 || stmt.Tables[2] != "ITEM" {
		t.Fatalf("Tables = %v", stmt.Tables)
	}
}

func TestParseJoinErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM CUST JOIN",
		"SELECT * FROM CUST JOIN ORD",
		"SELECT * FROM CUST JOIN ORD ON",
		"SELECT * FROM CUST INNER ORD ON CUST.ID = ORD.CUST",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("%q parsed without error", src)
		}
	}
}

func TestCompileJoinDecomposition(t *testing.T) {
	cat := joinCatalog(t)
	stmt, err := Parse("SELECT CUST.NAME, ORD.QTY FROM CUST JOIN ORD ON CUST.ID = ORD.CUST JOIN ITEM ON ORD.ID = ITEM.ID WHERE SEG = 0 AND QTY >= 5 AND CUST.SEG < ITEM.KIND")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Query != nil || c.Join == nil {
		t.Fatalf("join statement compiled to Query=%v Join=%v", c.Query, c.Join)
	}
	jq := c.Join
	if len(jq.Tables) != 3 {
		t.Fatalf("tables = %d", len(jq.Tables))
	}
	if len(jq.Preds) != 2 {
		t.Fatalf("equi-join preds = %+v", jq.Preds)
	}
	if jq.Preds[0] != (core.JoinPred{LT: 0, LC: 0, RT: 1, RC: 1}) {
		t.Fatalf("pred 0 = %+v", jq.Preds[0])
	}
	// SEG = 0 is local to CUST (unqualified but unique), QTY >= 5 local
	// to ORD; CUST.SEG < ITEM.KIND is residual (cross-table non-equi).
	if jq.Local[0] == nil || jq.Local[1] == nil || jq.Local[2] != nil {
		t.Fatalf("locals = %v", jq.Local)
	}
	if jq.Residual == nil {
		t.Fatalf("residual missing")
	}
	// Projection: CUST.NAME flat 2, ORD.QTY flat 3+2=5.
	if len(jq.Projection) != 2 || jq.Projection[0] != 2 || jq.Projection[1] != 5 {
		t.Fatalf("projection = %v", jq.Projection)
	}
}

func TestCompileJoinErrors(t *testing.T) {
	cat := joinCatalog(t)
	for _, src := range []string{
		// ID is ambiguous across CUST, ORD, and ITEM.
		"SELECT ID FROM CUST JOIN ORD ON CUST.ID = ORD.CUST",
		// No connecting predicate: cross product.
		"SELECT * FROM CUST, ITEM WHERE CUST.SEG = 0",
		// Unknown qualified table.
		"SELECT * FROM CUST JOIN ORD ON NOPE.ID = ORD.CUST",
		// Self-join unsupported.
		"SELECT * FROM CUST, CUST WHERE SEG = 0",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(cat, stmt); err == nil {
			t.Fatalf("%q compiled without error", src)
		}
	}
}

func TestShapeKeyJoinForm(t *testing.T) {
	cat := joinCatalog(t)
	k1 := keyOfCat(t, cat, "SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE SEG = :S")
	if !strings.HasPrefix(k1, "CUST,ORD|") {
		t.Fatalf("join shape key %q does not lead with the table list", k1)
	}
	// Same shape through comma syntax and different whitespace.
	k2 := keyOfCat(t, cat, "SELECT  *  FROM CUST, ORD WHERE CUST.ID = ORD.CUST AND SEG = :S")
	if k1 != k2 {
		t.Fatalf("equivalent join shapes differ:\n %q\n %q", k1, k2)
	}
	// Single-table keys are unchanged by the join work (no table list).
	k3 := keyOfCat(t, cat, "SELECT * FROM CUST WHERE SEG = :S")
	if !strings.HasPrefix(k3, "CUST|") {
		t.Fatalf("single-table key %q", k3)
	}
}

func TestParseTableAliases(t *testing.T) {
	// AS and bare aliases, mixed with an unaliased table.
	stmt, err := Parse("SELECT a.NAME FROM CUST AS a JOIN ORD o ON a.ID = o.CUST JOIN ITEM ON o.ID = ITEM.ID")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"CUST", "ORD", "ITEM"}; len(stmt.Tables) != 3 ||
		stmt.Tables[0] != want[0] || stmt.Tables[1] != want[1] || stmt.Tables[2] != want[2] {
		t.Fatalf("Tables = %v", stmt.Tables)
	}
	if want := []string{"a", "o", ""}; len(stmt.Aliases) != 3 ||
		stmt.Aliases[0] != want[0] || stmt.Aliases[1] != want[1] || stmt.Aliases[2] != want[2] {
		t.Fatalf("Aliases = %v", stmt.Aliases)
	}
	// No alias anywhere: Aliases stays nil (back-compat shape).
	stmt, err = Parse("SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Aliases != nil {
		t.Fatalf("Aliases = %v, want nil", stmt.Aliases)
	}
	// A late first alias backfills "" for the earlier tables.
	stmt, err = Parse("SELECT * FROM CUST, ORD o WHERE CUST.ID = o.CUST")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Aliases) != 2 || stmt.Aliases[0] != "" || stmt.Aliases[1] != "o" {
		t.Fatalf("Aliases = %v", stmt.Aliases)
	}
}

func TestCompileSelfJoinAliases(t *testing.T) {
	cat := joinCatalog(t)
	stmt, err := Parse("SELECT a.NAME, b.NAME FROM CUST a JOIN CUST b ON a.ID = b.SEG WHERE a.SEG = 0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	jq := c.Join
	if len(jq.Tables) != 2 || jq.Tables[0] != jq.Tables[1] {
		t.Fatalf("self-join tables = %v", jq.Tables)
	}
	if len(jq.Names) != 2 || jq.Names[0] != "a" || jq.Names[1] != "b" {
		t.Fatalf("Names = %v", jq.Names)
	}
	// a.ID = b.SEG: table 0 col 0 vs table 1 col 1.
	if len(jq.Preds) != 1 || jq.Preds[0] != (core.JoinPred{LT: 0, LC: 0, RT: 1, RC: 1}) {
		t.Fatalf("preds = %+v", jq.Preds)
	}
	// a.SEG = 0 restricts occurrence 0 only.
	if jq.Local[0] == nil || jq.Local[1] != nil {
		t.Fatalf("locals = %v", jq.Local)
	}
	// Projection: a.NAME flat 2, b.NAME flat 3+2=5.
	if len(jq.Projection) != 2 || jq.Projection[0] != 2 || jq.Projection[1] != 5 {
		t.Fatalf("projection = %v", jq.Projection)
	}
}

func TestCompileAliasErrors(t *testing.T) {
	cat := joinCatalog(t)
	for _, src := range []string{
		// Same alias twice.
		"SELECT * FROM CUST a JOIN ORD a ON a.ID = a.CUST",
		// An alias hides the underlying table name.
		"SELECT CUST.NAME FROM CUST a JOIN ORD o ON a.ID = o.CUST",
		// Unqualified column of a self-join is ambiguous.
		"SELECT * FROM CUST a JOIN CUST b ON a.ID = b.SEG WHERE NAME = 'x'",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(cat, stmt); err == nil {
			t.Fatalf("%q compiled without error", src)
		}
	}
	// The unaliased self-join error suggests aliasing.
	stmt, err := Parse("SELECT * FROM CUST, CUST WHERE SEG = 0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(cat, stmt)
	if err == nil || !strings.Contains(err.Error(), "alias") {
		t.Fatalf("unaliased self-join error = %v, want alias hint", err)
	}
}

func TestShapeKeyAliases(t *testing.T) {
	cat := joinCatalog(t)
	k1 := keyOfCat(t, cat, "SELECT * FROM CUST a JOIN CUST b ON a.ID = b.SEG WHERE a.SEG = :S")
	if !strings.HasPrefix(k1, "CUST a,CUST b|") {
		t.Fatalf("aliased shape key %q does not carry the alias structure", k1)
	}
	// Aliased and unaliased spellings of the same join are distinct
	// shapes: the predicate text differs too, but the table list alone
	// must already separate them.
	k2 := keyOfCat(t, cat, "SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE SEG = :S")
	k3 := keyOfCat(t, cat, "SELECT * FROM CUST c JOIN ORD o ON c.ID = o.CUST WHERE SEG = :S")
	if !strings.HasPrefix(k2, "CUST,ORD|") || !strings.HasPrefix(k3, "CUST c,ORD o|") {
		t.Fatalf("keys %q / %q", k2, k3)
	}
}

func TestJoinColumnNamesAliases(t *testing.T) {
	cat := joinCatalog(t)
	stmt, err := Parse("SELECT * FROM CUST a JOIN CUST b ON a.ID = b.SEG")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	names := c.JoinColumnNames()
	if len(names) != 6 || names[0] != "a.ID" || names[3] != "b.ID" {
		t.Fatalf("JoinColumnNames = %v", names)
	}
}

func keyOfCat(t *testing.T, cat *catalog.Catalog, src string) string {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c, err := Compile(cat, stmt)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return c.ShapeKey()
}
