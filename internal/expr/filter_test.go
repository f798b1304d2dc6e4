package expr

import (
	"errors"
	"math/rand"
	"testing"
)

// smallValue draws from a deliberately tiny domain so random comparisons
// come out true, false, NULL and mismatched in useful proportions.
func smallValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Null()
	case 1:
		return Bool(rng.Intn(2) == 0)
	case 2, 3:
		return Int(int64(rng.Intn(4)))
	case 4:
		return Float(float64(rng.Intn(4)) + 0.5*float64(rng.Intn(2)))
	default:
		return Str(string(rune('a' + rng.Intn(3))))
	}
}

// randOperand is a comparison operand: a column (sometimes out of
// range), a literal, or a host variable that binds may or may not hold.
func randOperand(rng *rand.Rand, width int) Expr {
	switch rng.Intn(8) {
	case 0, 1, 2:
		return Col(rng.Intn(width), "")
	case 3:
		return Col(width+rng.Intn(2), "") // past the row
	case 4:
		if rng.Intn(4) == 0 {
			return Col(-1, "")
		}
		return Lit(smallValue(rng))
	case 5:
		return Lit(smallValue(rng))
	default:
		return Var([]string{"A", "B", "C", "MISSING"}[rng.Intn(4)])
	}
}

func randPredicate(rng *rand.Rand, width, depth int) Expr {
	kids := func() []Expr {
		out := make([]Expr, rng.Intn(4)) // empty AND/OR included
		for i := range out {
			out[i] = randPredicate(rng, width, depth-1)
		}
		return out
	}
	if depth > 0 {
		switch rng.Intn(6) {
		case 0:
			return &And{Kids: kids()} // unflattened on purpose
		case 1:
			return NewAnd(kids()...)
		case 2:
			return NewOr(kids()...)
		case 3:
			return NewNot(randPredicate(rng, width, depth-1))
		}
	}
	if rng.Intn(12) == 0 {
		return randOperand(rng, width) // a bare operand where a boolean belongs
	}
	return NewCmp(CmpOp(rng.Intn(6)), randOperand(rng, width), randOperand(rng, width))
}

// raceEnabled is set by raceon_test.go when the race detector is on.
var raceEnabled bool

var evalErrors = []error{ErrUnboundParam, ErrTypeMismatch, ErrNotBoolean, ErrColumnMissing}

func errClass(t *testing.T, err error) error {
	if err == nil {
		return nil
	}
	for _, class := range evalErrors {
		if errors.Is(err, class) {
			return class
		}
	}
	t.Fatalf("error outside the evaluation classes: %v", err)
	return nil
}

// TestFilterEquivalentToEvalPred: over random trees, bindings and rows,
// Filter.Eval returns EvalPred's value and EvalPred's error class — the
// reference the engine's row kernel is held to.
func TestFilterEquivalentToEvalPred(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	const width = 4
	classes := map[error]int{}
	for i := 0; i < 4000; i++ {
		e := randPredicate(rng, width, 3)
		binds := Bindings{}
		for _, name := range []string{"A", "B", "C"} {
			if rng.Intn(4) != 0 {
				binds[name] = smallValue(rng)
			}
		}
		if rng.Intn(10) == 0 {
			binds = nil
		}
		f := NewFilter(e, binds)
		for j := 0; j < 8; j++ {
			row := make(Row, width)
			for c := range row {
				row[c] = smallValue(rng)
			}
			want, wantErr := EvalPred(e, row, binds)
			got, gotErr := f.Eval(row)
			if got != want || errClass(t, gotErr) != errClass(t, wantErr) {
				t.Fatalf("%s on %v under %v:\n filter   %v, %v\n EvalPred %v, %v", e, row, binds, got, gotErr, want, wantErr)
			}
			classes[errClass(t, wantErr)]++
		}
	}
	for _, class := range append(evalErrors, nil) {
		if classes[class] < 100 {
			t.Errorf("generator reached outcome %v only %d times", class, classes[class])
		}
	}
}

func TestFilterNilAndShortCircuit(t *testing.T) {
	if ok, err := NewFilter(nil, nil).Eval(nil); !ok || err != nil {
		t.Fatalf("absent restriction: %v, %v", ok, err)
	}
	// AND's left-to-right short-circuit hides the later mismatch and the
	// unbound parameter until a row gets that far.
	e := NewAnd(
		NewCmp(EQ, Col(0, "A"), Lit(Int(1))),
		NewCmp(EQ, Col(1, "B"), Lit(Str("x"))),
		NewCmp(EQ, Col(0, "A"), Var("P")),
	)
	f := NewFilter(e, nil)
	if ok, err := f.Eval(Row{Int(2), Int(7)}); ok || err != nil {
		t.Fatalf("first term false must decide: %v, %v", ok, err)
	}
	if _, err := f.Eval(Row{Int(1), Int(7)}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("want the mismatch of term 2, got %v", err)
	}
	if _, err := f.Eval(Row{Int(1), Str("x")}); !errors.Is(err, ErrUnboundParam) {
		t.Fatalf("want the unbound parameter of term 3, got %v", err)
	}
}

// TestFilterAllocs: preparing is cheap and evaluating a flat conjunction
// allocates nothing (allocation counts mean nothing under -race).
func TestFilterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	e := NewAnd(NewCmp(GE, Col(0, "A"), Var("LO")), NewCmp(LT, Col(1, "B"), Lit(Str("m"))))
	binds := Bindings{"LO": Int(10)}
	f := NewFilter(e, binds)
	row := Row{Int(30), Str("k")}
	if n := testing.AllocsPerRun(200, func() {
		if ok, err := f.Eval(row); !ok || err != nil {
			t.Fatal(ok, err)
		}
	}); n != 0 {
		t.Fatalf("Filter.Eval allocates %v times per row", n)
	}
	if n := testing.AllocsPerRun(200, func() { NewFilter(e, binds) }); n > 2 {
		t.Fatalf("NewFilter of a flat conjunction allocates %v times, want <= 2", n)
	}
}
