package expr

import (
	"math/rand"
	"strings"
	"testing"
)

func BenchmarkEncodeRow(b *testing.B) {
	row := Row{Int(42), Str("hello world"), Float(3.14), Bool(true)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeRow(row)
	}
}

func BenchmarkDecodeRow(b *testing.B) {
	enc := EncodeRow(Row{Int(42), Str("hello world"), Float(3.14), Bool(true)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRow(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeKey(b *testing.B) {
	var dst []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EncodeKey(dst[:0], Int(int64(i)), Str("abc"))
	}
}

func BenchmarkEvalPredicate(b *testing.B) {
	row := Row{Int(30), Str("smith"), Float(1500.5)}
	e := NewAnd(
		NewCmp(GE, Col(0, "AGE"), Lit(Int(10))),
		NewOr(
			NewCmp(EQ, Col(1, "NAME"), Lit(Str("smith"))),
			NewCmp(LT, Col(2, "SALARY"), Lit(Float(100))),
		),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalPred(e, row, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareValues(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]Value, 1024)
	for i := range vals {
		vals[i] = randValue(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(vals[i%1024], vals[(i+1)%1024])
	}
}

// BenchmarkDecodeView decodes a FAMILIES-shaped record (ID, AGE, CITY,
// a 60-byte PAD) whole and for a one-column need: the walk and
// validation are the same, only the stores differ.
func BenchmarkDecodeView(b *testing.B) {
	rec := EncodeRow(Row{Int(73512), Int(4321), Int(17), Str(strings.Repeat("p", 60))})
	for _, bc := range []struct {
		name string
		need ColSet
	}{
		{"all", nil},
		{"one-column", Cols(4, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var scratch Row
			for i := 0; i < b.N; i++ {
				var err error
				if scratch, err = DecodeView(rec, scratch, bc.need); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
