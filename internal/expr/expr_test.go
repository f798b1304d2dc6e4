package expr

import (
	"errors"
	"strings"
	"testing"
)

// testRow: columns 0=AGE int, 1=NAME string, 2=SALARY float, 3=ACTIVE bool
var testRow = Row{Int(30), Str("smith"), Float(1500.5), Bool(true)}

func age() Expr    { return Col(0, "AGE") }
func name() Expr   { return Col(1, "NAME") }
func salary() Expr { return Col(2, "SALARY") }

func mustEval(t *testing.T, e Expr, row Row, binds Bindings) Value {
	t.Helper()
	v, err := e.Eval(row, binds)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestCmpOperators(t *testing.T) {
	cases := []struct {
		op   CmpOp
		rhs  Value
		want bool
	}{
		{EQ, Int(30), true}, {EQ, Int(31), false},
		{NE, Int(30), false}, {NE, Int(31), true},
		{LT, Int(31), true}, {LT, Int(30), false},
		{LE, Int(30), true}, {LE, Int(29), false},
		{GT, Int(29), true}, {GT, Int(30), false},
		{GE, Int(30), true}, {GE, Int(31), false},
	}
	for _, c := range cases {
		e := NewCmp(c.op, age(), Lit(c.rhs))
		if got := mustEval(t, e, testRow, nil); got.Truth() != c.want {
			t.Errorf("%s on AGE=30: got %v, want %v", e, got, c.want)
		}
	}
}

func TestCmpCrossTypeNumeric(t *testing.T) {
	e := NewCmp(GT, salary(), Lit(Int(1500)))
	if !mustEval(t, e, testRow, nil).Truth() {
		t.Error("1500.5 > 1500 should hold")
	}
}

func TestCmpTypeMismatchIsError(t *testing.T) {
	e := NewCmp(EQ, age(), Lit(Str("30")))
	if _, err := e.Eval(testRow, nil); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("got %v, want ErrTypeMismatch", err)
	}
}

func TestCmpNullIsFalse(t *testing.T) {
	e := NewCmp(EQ, age(), Lit(Null()))
	if mustEval(t, e, testRow, nil).Truth() {
		t.Error("comparison with NULL must be FALSE")
	}
	e = NewCmp(NE, age(), Lit(Null()))
	if mustEval(t, e, testRow, nil).Truth() {
		t.Error("NE with NULL must also be FALSE")
	}
}

func TestParamBinding(t *testing.T) {
	e := NewCmp(GE, age(), Var("A1"))
	if !mustEval(t, e, testRow, Bindings{"A1": Int(0)}).Truth() {
		t.Error("AGE >= 0 should hold")
	}
	if mustEval(t, e, testRow, Bindings{"A1": Int(200)}).Truth() {
		t.Error("AGE >= 200 should not hold")
	}
	if _, err := e.Eval(testRow, nil); !errors.Is(err, ErrUnboundParam) {
		t.Fatalf("unbound param: got %v", err)
	}
}

func TestAndOrNot(t *testing.T) {
	tr := NewCmp(EQ, age(), Lit(Int(30)))
	fa := NewCmp(EQ, age(), Lit(Int(31)))
	if !mustEval(t, NewAnd(tr, tr), testRow, nil).Truth() {
		t.Error("T AND T")
	}
	if mustEval(t, NewAnd(tr, fa), testRow, nil).Truth() {
		t.Error("T AND F")
	}
	if !mustEval(t, NewOr(fa, tr), testRow, nil).Truth() {
		t.Error("F OR T")
	}
	if mustEval(t, NewOr(fa, fa), testRow, nil).Truth() {
		t.Error("F OR F")
	}
	if mustEval(t, NewNot(tr), testRow, nil).Truth() {
		t.Error("NOT T")
	}
	if !mustEval(t, NewAnd(), testRow, nil).Truth() {
		t.Error("empty AND must be TRUE")
	}
	if mustEval(t, NewOr(), testRow, nil).Truth() {
		t.Error("empty OR must be FALSE")
	}
}

func TestAndShortCircuitSkipsError(t *testing.T) {
	fa := NewCmp(EQ, age(), Lit(Int(31)))
	boom := NewCmp(EQ, age(), Var("missing"))
	if mustEval(t, NewAnd(fa, boom), testRow, nil).Truth() {
		t.Error("want FALSE")
	}
	tr := NewCmp(EQ, age(), Lit(Int(30)))
	if !mustEval(t, NewOr(tr, boom), testRow, nil).Truth() {
		t.Error("want TRUE")
	}
}

func TestNonBooleanOperandIsError(t *testing.T) {
	if _, err := NewAnd(age()).Eval(testRow, nil); !errors.Is(err, ErrNotBoolean) {
		t.Fatalf("AND over int: got %v", err)
	}
	if _, err := NewNot(age()).Eval(testRow, nil); !errors.Is(err, ErrNotBoolean) {
		t.Fatalf("NOT over int: got %v", err)
	}
	if _, err := EvalPred(age(), testRow, nil); !errors.Is(err, ErrNotBoolean) {
		t.Fatalf("EvalPred over int: got %v", err)
	}
}

func TestColumnOutOfRange(t *testing.T) {
	e := Col(9, "X")
	if _, err := e.Eval(testRow, nil); !errors.Is(err, ErrColumnMissing) {
		t.Fatalf("got %v", err)
	}
}

func TestEvalPredNilIsTrue(t *testing.T) {
	ok, err := EvalPred(nil, testRow, nil)
	if err != nil || !ok {
		t.Fatalf("nil restriction: %v, %v", ok, err)
	}
}

func TestConjunctsFlattensNestedAnds(t *testing.T) {
	a := NewCmp(GT, age(), Lit(Int(1)))
	b := NewCmp(LT, age(), Lit(Int(9)))
	c := NewCmp(EQ, name(), Lit(Str("x")))
	e := NewAnd(NewAnd(a, b), c)
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("got %d conjuncts, want 3", len(cs))
	}
	// An OR is a single conjunct.
	e2 := NewAnd(a, NewOr(b, c))
	if got := Conjuncts(e2); len(got) != 2 {
		t.Fatalf("got %d conjuncts, want 2", len(got))
	}
	if Conjuncts(nil) != nil {
		t.Fatal("nil expression must have no conjuncts")
	}
}

func TestColumns(t *testing.T) {
	e := NewAnd(
		NewCmp(GT, age(), Var("A1")),
		NewOr(
			NewCmp(EQ, name(), Lit(Str("x"))),
			NewNot(NewCmp(LT, salary(), Var("S"))),
		),
	)
	if got := Columns(e); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("Columns = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	e := NewAnd(
		NewCmp(GE, age(), Var("A1")),
		NewOr(NewCmp(EQ, name(), Lit(Str("x"))), NewCmp(LT, salary(), Lit(Float(10)))),
	)
	s := e.String()
	for _, want := range []string{"AGE >= :A1", "OR", `NAME = "x"`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := NewAnd(NewCmp(EQ, age(), Lit(Int(1))), NewNot(NewCmp(LT, age(), Var("p"))))
	if err := Validate(good); err != nil {
		t.Fatalf("good tree rejected: %v", err)
	}
	bad := &Cmp{Op: EQ, L: age(), R: nil}
	if err := Validate(bad); err == nil {
		t.Fatal("nil operand accepted")
	}
	if err := Validate(&And{Kids: []Expr{nil}}); err == nil {
		t.Fatal("nil AND child accepted")
	}
	if err := Validate(nil); err != nil {
		t.Fatalf("nil expression should validate: %v", err)
	}
}

func TestFlipOp(t *testing.T) {
	pairs := map[CmpOp]CmpOp{EQ: EQ, NE: NE, LT: GT, LE: GE, GT: LT, GE: LE}
	for op, want := range pairs {
		if got := op.Flip(); got != want {
			t.Errorf("Flip(%s) = %s, want %s", op, got, want)
		}
	}
}
