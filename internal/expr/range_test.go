package expr

import (
	"math"
	"math/rand"
	"testing"
)

func TestRangeBasics(t *testing.T) {
	full := FullRange()
	if full.Lo.Present || full.Hi.Present || full.Empty() || full.IsPoint() {
		t.Fatal("full range misclassified")
	}
	p := PointRange(Int(5))
	if !p.IsPoint() || p.Empty() {
		t.Fatal("point range misclassified")
	}
	if !p.Contains(Int(5)) || p.Contains(Int(6)) {
		t.Fatal("point containment wrong")
	}
}

func TestRangeEmpty(t *testing.T) {
	lo := Bound{Value: Int(10), Inclusive: true, Present: true}
	hi := Bound{Value: Int(5), Inclusive: true, Present: true}
	if !(Range{Lo: lo, Hi: hi}).Empty() {
		t.Fatal("inverted range must be empty")
	}
	// [5,5) is empty, [5,5] is not.
	he := Bound{Value: Int(5), Present: true}
	hi5 := Bound{Value: Int(5), Inclusive: true, Present: true}
	lo5 := Bound{Value: Int(5), Inclusive: true, Present: true}
	if !(Range{Lo: lo5, Hi: he}).Empty() {
		t.Fatal("[5,5) must be empty")
	}
	if (Range{Lo: lo5, Hi: hi5}).Empty() {
		t.Fatal("[5,5] must not be empty")
	}
}

func TestRangeIntersect(t *testing.T) {
	a := Range{Lo: Bound{Value: Int(0), Inclusive: true, Present: true}}
	b := Range{Hi: Bound{Value: Int(10), Present: true}}
	c := a.Intersect(b)
	if !c.Contains(Int(0)) || !c.Contains(Int(9)) || c.Contains(Int(10)) || c.Contains(Int(-1)) {
		t.Fatalf("intersection wrong: %v", c)
	}
	// Tighter bound wins; exclusive beats inclusive at the same value.
	d := a.Intersect(Range{Lo: Bound{Value: Int(0), Present: true}})
	if d.Contains(Int(0)) {
		t.Fatal("exclusive lower bound must win at equal value")
	}
}

func TestRangeIntersectRandomizedAgainstContains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randBound := func() Bound {
		if rng.Intn(4) == 0 {
			return Bound{}
		}
		return Bound{Value: Int(int64(rng.Intn(20))), Inclusive: rng.Intn(2) == 0, Present: true}
	}
	for i := 0; i < 5000; i++ {
		a := Range{Lo: randBound(), Hi: randBound()}
		b := Range{Lo: randBound(), Hi: randBound()}
		c := a.Intersect(b)
		for v := int64(-1); v <= 21; v++ {
			got := c.Contains(Int(v))
			want := a.Contains(Int(v)) && b.Contains(Int(v))
			if got != want {
				t.Fatalf("Contains(%d) on %v ∩ %v = %v: got %v, want %v", v, a, b, c, got, want)
			}
		}
	}
}

func TestRangeFromCmpBothOperandOrders(t *testing.T) {
	// AGE >= 10
	r1, ok := RangeFromCmp(NewCmp(GE, Col(0, "AGE"), Lit(Int(10))), 0, nil)
	if !ok {
		t.Fatal("sargable conjunct rejected")
	}
	// 10 <= AGE: same range.
	r2, ok := RangeFromCmp(NewCmp(LE, Lit(Int(10)), Col(0, "AGE")), 0, nil)
	if !ok {
		t.Fatal("flipped conjunct rejected")
	}
	for v := int64(8); v <= 12; v++ {
		if r1.Contains(Int(v)) != r2.Contains(Int(v)) {
			t.Fatalf("flip mismatch at %d: %v vs %v", v, r1, r2)
		}
	}
	if r1.Contains(Int(9)) || !r1.Contains(Int(10)) {
		t.Fatalf("GE range wrong: %v", r1)
	}
}

func TestRangeFromCmpRejectsNonSargable(t *testing.T) {
	// Different column.
	if _, ok := RangeFromCmp(NewCmp(EQ, Col(1, "B"), Lit(Int(1))), 0, nil); ok {
		t.Fatal("other-column conjunct accepted")
	}
	// Column-to-column comparison.
	if _, ok := RangeFromCmp(NewCmp(LT, Col(0, "A"), Col(1, "B")), 0, nil); ok {
		t.Fatal("col-col conjunct accepted")
	}
	// NE is not sargable.
	if _, ok := RangeFromCmp(NewCmp(NE, Col(0, "A"), Lit(Int(1))), 0, nil); ok {
		t.Fatal("NE accepted")
	}
	// Unbound parameter.
	if _, ok := RangeFromCmp(NewCmp(EQ, Col(0, "A"), Var("p")), 0, nil); ok {
		t.Fatal("unbound param accepted")
	}
}

func TestRangeFromCmpWithParam(t *testing.T) {
	c := NewCmp(GE, Col(0, "AGE"), Var("A1"))
	r, ok := RangeFromCmp(c, 0, Bindings{"A1": Int(200)})
	if !ok {
		t.Fatal("bound param rejected")
	}
	if r.Contains(Int(199)) || !r.Contains(Int(200)) {
		t.Fatalf("param range wrong: %v", r)
	}
}

func TestRangeFromCmpNullConstantIsEmpty(t *testing.T) {
	r, ok := RangeFromCmp(NewCmp(EQ, Col(0, "A"), Lit(Null())), 0, nil)
	if !ok || !r.Empty() {
		t.Fatalf("NULL comparison: ok=%v range=%v", ok, r)
	}
}

func TestExtractRangeIntersectsConjuncts(t *testing.T) {
	e := NewAnd(
		NewCmp(GE, Col(0, "AGE"), Lit(Int(30))),
		NewCmp(LT, Col(0, "AGE"), Lit(Int(40))),
		NewCmp(EQ, Col(1, "NAME"), Lit(Str("x"))), // other column: ignored
	)
	r, n := ExtractRange(e, 0, nil)
	if n != 2 {
		t.Fatalf("contributing conjuncts = %d, want 2", n)
	}
	if !r.Contains(Int(30)) || !r.Contains(Int(39)) || r.Contains(Int(40)) || r.Contains(Int(29)) {
		t.Fatalf("range wrong: %v", r)
	}
	// Column 1 gets a point range from its EQ.
	r1, n1 := ExtractRange(e, 1, nil)
	if n1 != 1 || !r1.IsPoint() {
		t.Fatalf("col 1: n=%d range=%v", n1, r1)
	}
	// Column 2 gets the full range.
	r2, n2 := ExtractRange(e, 2, nil)
	if n2 != 0 || r2 != FullRange() {
		t.Fatalf("col 2: n=%d range=%v", n2, r2)
	}
}

func TestExtractRangeContradictionIsEmpty(t *testing.T) {
	e := NewAnd(
		NewCmp(GT, Col(0, "A"), Lit(Int(10))),
		NewCmp(LT, Col(0, "A"), Lit(Int(5))),
	)
	r, _ := ExtractRange(e, 0, nil)
	if !r.Empty() {
		t.Fatalf("contradictory range not empty: %v", r)
	}
}

func TestEncodedBoundsMatchContains(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		var r Range
		if rng.Intn(3) > 0 {
			r.Lo = Bound{Value: Int(int64(rng.Intn(100))), Inclusive: rng.Intn(2) == 0, Present: true}
		}
		if rng.Intn(3) > 0 {
			r.Hi = Bound{Value: Int(int64(rng.Intn(100))), Inclusive: rng.Intn(2) == 0, Present: true}
		}
		lo, hi := r.EncodedBounds()
		for v := int64(0); v < 100; v += 7 {
			k := EncodeKey(nil, Int(v))
			inKeys := (lo == nil || CompareKeys(k, lo) >= 0) && (hi == nil || CompareKeys(k, hi) < 0)
			if inKeys != r.Contains(Int(v)) {
				t.Fatalf("bounds mismatch for %d in %v", v, r)
			}
		}
	}
}

func TestRangeString(t *testing.T) {
	r := Range{
		Lo: Bound{Value: Int(1), Inclusive: true, Present: true},
		Hi: Bound{Value: Int(5), Present: true},
	}
	if got := r.String(); got != "[1, 5)" {
		t.Fatalf("String = %q", got)
	}
	if got := FullRange().String(); got != "(-inf, +inf)" {
		t.Fatalf("full String = %q", got)
	}
}

// TestProvedByKeyRange: a key range proves a comparison only when key
// order and Compare agree on its constant against every value the
// column can hold. The cases the soundness property test of
// catalog.KeyRestriction cannot reach with small stored values are
// spelled out: an INT outside float64's exact integers sorts, as a key,
// beside neighbours Compare tells apart; NaN and -0.0 compare equal to
// values their keys sort away from.
func TestProvedByKeyRange(t *testing.T) {
	col := Col(1, "A")
	binds := Bindings{"P": Int(7), "S": Str("x")}
	for _, tc := range []struct {
		name string
		c    *Cmp
		t    Type
		want bool
	}{
		{"int constant", NewCmp(LT, col, Lit(Int(5))), TypeInt, true},
		{"constant on the left", NewCmp(GE, Lit(Int(5)), col), TypeInt, true},
		{"bound parameter", NewCmp(EQ, col, Var("P")), TypeInt, true},
		{"float against an INT column", NewCmp(LE, col, Lit(Float(2.5))), TypeInt, true},
		{"largest exact int", NewCmp(GT, col, Lit(Int(1<<53-1))), TypeInt, true},
		{"int past float64's exact range", NewCmp(GE, col, Lit(Int(1<<53))), TypeInt, false},
		{"negative int past it", NewCmp(LT, col, Lit(Int(-1<<53))), TypeInt, false},
		{"NaN", NewCmp(LT, col, Lit(Float(math.NaN()))), TypeInt, false},
		{"negative zero", NewCmp(GT, col, Lit(Float(math.Copysign(0, -1)))), TypeInt, false},
		{"NE", NewCmp(NE, col, Lit(Int(5))), TypeInt, false},
		{"NULL constant", NewCmp(EQ, col, Lit(Null())), TypeInt, false},
		{"mismatched constant", NewCmp(LT, col, Lit(Str("x"))), TypeInt, false},
		{"mismatched bind", NewCmp(LT, col, Var("S")), TypeInt, false},
		{"unbound parameter", NewCmp(LT, col, Var("MISSING")), TypeInt, false},
		{"another column", NewCmp(LT, Col(0, "B"), Lit(Int(5))), TypeInt, false},
		{"column against column", NewCmp(LT, col, Col(0, "B")), TypeInt, false},
		{"string", NewCmp(GE, col, Var("S")), TypeString, true},
		{"int against a STRING column", NewCmp(GE, col, Lit(Int(5))), TypeString, false},
		{"bool", NewCmp(EQ, col, Lit(Bool(true))), TypeBool, true},
		{"FLOAT column", NewCmp(LT, col, Lit(Float(2.5))), TypeFloat, false},
	} {
		if got := ProvedByKeyRange(tc.c, 1, tc.t, binds); got != tc.want {
			t.Errorf("%s (%s on a %s column): proved = %v, want %v", tc.name, tc.c, tc.t, got, tc.want)
		}
	}
}
