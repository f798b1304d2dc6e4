package sql

import (
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

func TestParseBasicSelect(t *testing.T) {
	stmt, err := Parse("SELECT * FROM families WHERE age >= :A1")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Table != "families" || stmt.Columns != nil || stmt.CountStar {
		t.Fatalf("stmt = %+v", stmt)
	}
	cmp, ok := stmt.Where.(CmpNode)
	if !ok || cmp.Op != expr.GE {
		t.Fatalf("where = %+v", stmt.Where)
	}
	if _, ok := cmp.L.(ColNode); !ok {
		t.Fatalf("left operand = %T", cmp.L)
	}
	if p, ok := cmp.R.(ParamNode); !ok || p.Name != "A1" {
		t.Fatalf("right operand = %+v", cmp.R)
	}
}

func TestParseColumnListAndOrderLimit(t *testing.T) {
	stmt, err := Parse("SELECT a, b FROM t WHERE a = 1 ORDER BY b, a LIMIT TO 5 ROWS OPTIMIZE FOR FAST FIRST")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Columns) != 2 || stmt.Columns[1] != "b" {
		t.Fatalf("columns = %v", stmt.Columns)
	}
	if len(stmt.OrderBy) != 2 || stmt.Limit != 5 {
		t.Fatalf("order/limit = %v %d", stmt.OrderBy, stmt.Limit)
	}
	if stmt.Optimize != OptimizeFastFirst {
		t.Fatalf("optimize = %v", stmt.Optimize)
	}
}

func TestParseCountStar(t *testing.T) {
	stmt, err := Parse("SELECT COUNT(*) FROM t WHERE x < 3 OPTIMIZE FOR TOTAL TIME")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.CountStar || stmt.Optimize != OptimizeTotalTime {
		t.Fatalf("stmt = %+v", stmt)
	}
}

func TestParseBooleanStructure(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = 1 AND (b < 2 OR NOT c >= 3) AND d <> 'x''y'")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := stmt.Where.(AndNode)
	if !ok || len(and.Kids) != 3 {
		t.Fatalf("where = %+v", stmt.Where)
	}
	or, ok := and.Kids[1].(OrNode)
	if !ok || len(or.Kids) != 2 {
		t.Fatalf("middle = %+v", and.Kids[1])
	}
	if _, ok := or.Kids[1].(NotNode); !ok {
		t.Fatalf("NOT missing: %+v", or.Kids[1])
	}
	cmp := and.Kids[2].(CmpNode)
	if lit, ok := cmp.R.(LitNode); !ok || lit.V.S != "x'y" {
		t.Fatalf("escaped string = %+v", cmp.R)
	}
}

func TestParseNumbers(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = -5 AND b < 2.75")
	if err != nil {
		t.Fatal(err)
	}
	and := stmt.Where.(AndNode)
	if lit := and.Kids[0].(CmpNode).R.(LitNode); lit.V.I != -5 {
		t.Fatalf("int literal = %v", lit.V)
	}
	if lit := and.Kids[1].(CmpNode).R.(LitNode); lit.V.Float() != 2.75 {
		t.Fatalf("float literal = %v", lit.V)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT * FORM t",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a",
		"SELECT * FROM t WHERE a = ",
		"SELECT * FROM t WHERE (a = 1",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t LIMIT 0",
		"SELECT * FROM t OPTIMIZE FOR SPEED",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT COUNT(x) FROM t",
		"SELECT * FROM t alias extra", // one alias is legal, two idents are not
		"SELECT * FROM t AS",
		"SELECT * FROM t WHERE a = 1.2.3",
		"SELECT * FROM t WHERE a = :",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	stmt, err := Parse("select id from t where id = 1 order by id limit 2")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Limit != 2 || len(stmt.OrderBy) != 1 {
		t.Fatalf("stmt = %+v", stmt)
	}
}

func newTable(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(4096), 0))
	tab, err := cat.CreateTable("T", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "AGE", Type: expr.TypeInt},
		{Name: "NAME", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := tab.Insert(expr.Row{expr.Int(i), expr.Int(i * 10), expr.Str("n")}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestCompileResolvesColumns(t *testing.T) {
	cat := newTable(t)
	stmt, err := Parse("SELECT AGE, ID FROM T WHERE AGE > 30 AND NAME = 'n' ORDER BY ID LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	q := c.Query
	if len(q.Projection) != 2 || q.Projection[0] != 1 || q.Projection[1] != 0 {
		t.Fatalf("projection = %v", q.Projection)
	}
	if len(q.OrderBy) != 1 || q.OrderBy[0] != 0 {
		t.Fatalf("order = %v", q.OrderBy)
	}
	if q.Limit != 3 || q.Control != core.ControlLimit {
		t.Fatalf("limit/control = %d %v", q.Limit, q.Control)
	}
	if !strings.Contains(q.Restriction.String(), "AGE > 30") {
		t.Fatalf("restriction = %s", q.Restriction)
	}
}

func TestCompileGoalInference(t *testing.T) {
	cat := newTable(t)
	cases := []struct {
		src  string
		want core.Goal
	}{
		{"SELECT * FROM T LIMIT 2", core.GoalFastFirst},
		{"SELECT COUNT(*) FROM T", core.GoalTotalTime},
		{"SELECT * FROM T ORDER BY ID", core.GoalTotalTime},
		{"SELECT * FROM T", core.GoalTotalTime},
		{"SELECT * FROM T OPTIMIZE FOR FAST FIRST", core.GoalFastFirst},
		// A controlling LIMIT overrides the user request, per Section 4.
		{"SELECT * FROM T LIMIT 2 OPTIMIZE FOR TOTAL TIME", core.GoalFastFirst},
	}
	for _, tc := range cases {
		stmt, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		c, err := Compile(cat, stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := c.Query.EffectiveGoal(); got != tc.want {
			t.Errorf("%s: goal %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cat := newTable(t)
	for _, src := range []string{
		"SELECT * FROM MISSING",
		"SELECT nope FROM T",
		"SELECT * FROM T WHERE nope = 1",
		"SELECT * FROM T ORDER BY nope",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(cat, stmt); err == nil {
			t.Errorf("compiled %q", src)
		}
	}
}
