package sql

import (
	"testing"

	"rdbdyn/internal/expr"
)

func TestParseStatementDispatch(t *testing.T) {
	if s, err := ParseStatement("SELECT * FROM T"); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*SelectStmt); !ok {
		t.Fatalf("got %T", s)
	}
	if s, err := ParseStatement("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*InsertStmt); !ok {
		t.Fatalf("got %T", s)
	}
	if s, err := ParseStatement("DELETE FROM T"); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*DeleteStmt); !ok {
		t.Fatalf("got %T", s)
	}
	if s, err := ParseStatement("UPDATE T SET A = 1"); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*UpdateStmt); !ok {
		t.Fatalf("got %T", s)
	}
}

func TestParseInsertShapes(t *testing.T) {
	s, err := ParseStatement("INSERT INTO T VALUES (1, 'x', :p), (2, 'y', 3.5)")
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(*InsertStmt)
	if ins.Table != "T" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
	if lit, ok := ins.Rows[0][0].(LitNode); !ok || lit.V.I != 1 {
		t.Fatalf("first value = %+v", ins.Rows[0][0])
	}
	if p, ok := ins.Rows[0][2].(ParamNode); !ok || p.Name != "p" {
		t.Fatalf("param value = %+v", ins.Rows[0][2])
	}
	if lit, ok := ins.Rows[1][2].(LitNode); !ok || lit.V.Float() != 3.5 {
		t.Fatalf("float value = %+v", ins.Rows[1][2])
	}
}

func TestParseDeleteShapes(t *testing.T) {
	s, err := ParseStatement("DELETE FROM T WHERE A < 5 AND B = 'z'")
	if err != nil {
		t.Fatal(err)
	}
	del := s.(*DeleteStmt)
	if del.Table != "T" {
		t.Fatalf("table = %s", del.Table)
	}
	and, ok := del.Where.(AndNode)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("where = %+v", del.Where)
	}
	// WHERE-less delete.
	s2, err := ParseStatement("DELETE FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if s2.(*DeleteStmt).Where != nil {
		t.Fatal("where should be nil")
	}
}

func TestParseUpdateShapes(t *testing.T) {
	s, err := ParseStatement("UPDATE T SET A = 1, B = :b WHERE C > 2")
	if err != nil {
		t.Fatal(err)
	}
	up := s.(*UpdateStmt)
	if len(up.Sets) != 2 || up.Sets[0].Col != "A" || up.Sets[1].Col != "B" {
		t.Fatalf("sets = %+v", up.Sets)
	}
	if _, ok := up.Sets[1].Value.(ParamNode); !ok {
		t.Fatalf("param set value = %+v", up.Sets[1].Value)
	}
	if up.Where == nil {
		t.Fatal("where missing")
	}
}

func TestParseInSuffix(t *testing.T) {
	stmt, err := Parse("SELECT * FROM T WHERE A IN (1, 2, :p)")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := stmt.Where.(OrNode)
	if !ok || len(or.Kids) != 3 {
		t.Fatalf("IN compiled to %+v", stmt.Where)
	}
	for _, k := range or.Kids {
		cmp, ok := k.(CmpNode)
		if !ok || cmp.Op != expr.EQ {
			t.Fatalf("IN disjunct = %+v", k)
		}
	}
	// Single-element IN collapses to one comparison.
	stmt2, _ := Parse("SELECT * FROM T WHERE A IN (7)")
	if _, ok := stmt2.Where.(CmpNode); !ok {
		t.Fatalf("single IN = %+v", stmt2.Where)
	}
}

func TestParseBetweenSuffix(t *testing.T) {
	stmt, err := Parse("SELECT * FROM T WHERE A BETWEEN 3 AND 9 AND B = 1")
	if err != nil {
		t.Fatal(err)
	}
	// Top level: (A>=3 AND A<=9) AND B=1 — flattening happens at
	// compile time, the parser keeps the nesting.
	and, ok := stmt.Where.(AndNode)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("where = %+v", stmt.Where)
	}
	inner, ok := and.Kids[0].(AndNode)
	if !ok || len(inner.Kids) != 2 {
		t.Fatalf("between = %+v", and.Kids[0])
	}
	lo := inner.Kids[0].(CmpNode)
	hi := inner.Kids[1].(CmpNode)
	if lo.Op != expr.GE || hi.Op != expr.LE {
		t.Fatalf("between ops = %v %v", lo.Op, hi.Op)
	}
}

func TestParseNotSuffixes(t *testing.T) {
	stmt, err := Parse("SELECT * FROM T WHERE A NOT IN (1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.Where.(NotNode); !ok {
		t.Fatalf("NOT IN = %+v", stmt.Where)
	}
	stmt2, err := Parse("SELECT * FROM T WHERE A NOT BETWEEN 1 AND 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt2.Where.(NotNode); !ok {
		t.Fatalf("NOT BETWEEN = %+v", stmt2.Where)
	}
}

func TestParseExistsAndExplain(t *testing.T) {
	stmt, err := Parse("EXISTS(SELECT * FROM T WHERE A = 1)")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Exists || stmt.Explain {
		t.Fatalf("stmt = %+v", stmt)
	}
	stmt2, err := Parse("EXPLAIN SELECT * FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt2.Explain || stmt2.Exists {
		t.Fatalf("stmt = %+v", stmt2)
	}
	stmt3, err := Parse("EXPLAIN EXISTS(SELECT * FROM T)")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt3.Explain || !stmt3.Exists {
		t.Fatalf("stmt = %+v", stmt3)
	}
}

func TestParseAggregates(t *testing.T) {
	for _, kind := range []string{"SUM", "AVG", "MIN", "MAX"} {
		stmt, err := Parse("SELECT " + kind + "(V) FROM T")
		if err != nil {
			t.Fatal(err)
		}
		if stmt.Agg == nil || stmt.Agg.Kind != kind || stmt.Agg.Col != "V" {
			t.Fatalf("%s parsed as %+v", kind, stmt.Agg)
		}
	}
}

func TestParseOrderDesc(t *testing.T) {
	stmt, err := Parse("SELECT * FROM T ORDER BY A DESC, B DESC")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.OrderDesc || len(stmt.OrderBy) != 2 {
		t.Fatalf("stmt = %+v", stmt)
	}
	if _, err := Parse("SELECT * FROM T ORDER BY A ASC, B DESC"); err == nil {
		t.Fatal("mixed directions accepted")
	}
}

func TestSyntaxErrorReportsPosition(t *testing.T) {
	_, err := Parse("SELECT * FROM T WHERE !")
	if err == nil {
		t.Fatal("bad input accepted")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos != 22 || se.Error() == "" {
		t.Fatalf("error = %+v", se)
	}
}

func TestCompileExprStandalone(t *testing.T) {
	cat := newTable(t)
	s, err := ParseStatement("DELETE FROM T WHERE AGE > 5")
	if err != nil {
		t.Fatal(err)
	}
	e, err := CompileExpr(cat, "T", s.(*DeleteStmt).Where)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "AGE > 5" {
		t.Fatalf("expr = %s", e)
	}
	if _, err := CompileExpr(cat, "MISSING", s.(*DeleteStmt).Where); err == nil {
		t.Fatal("missing table accepted")
	}
	if e, err := CompileExpr(cat, "T", nil); err != nil || e != nil {
		t.Fatal("nil where must compile to nil")
	}
}

func TestParseStatementErrors(t *testing.T) {
	for _, src := range []string{
		"INSERT INTO T VALUES",
		"UPDATE SET A = 1",
		"UPDATE T SET = 1",
		"DELETE",
		"INSERT INTO T VALUES (1) extra",
		"UPDATE T SET A = 1 extra",
	} {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}
