package expr

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestDecodeKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(3)
		row := make(Row, n)
		types := make([]Type, n)
		for j := range row {
			row[j] = randValue(rng)
			types[j] = row[j].T
		}
		k := EncodeKey(nil, row...)
		got, err := DecodeKey(k, types)
		if err != nil {
			t.Fatalf("DecodeKey(%v): %v", row, err)
		}
		for j := range row {
			if got[j].T != row[j].T || Compare(got[j], row[j]) != 0 {
				t.Fatalf("column %d: decoded %v, want %v", j, got[j], row[j])
			}
		}
	}
}

func TestDecodeKeyIntExactness(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1<<52 - 1, -(1<<52 - 1), 123456789} {
		k := EncodeKey(nil, Int(v))
		row, err := DecodeKey(k, []Type{TypeInt})
		if err != nil {
			t.Fatal(err)
		}
		if row[0].T != TypeInt || row[0].I != v {
			t.Fatalf("decoded %v, want %d", row[0], v)
		}
	}
}

func TestDecodeKeyRejectsMalformed(t *testing.T) {
	k := EncodeKey(nil, Str("abc"), Int(5))
	// Truncations must error (except cuts that still parse as fewer
	// columns than requested types -> also error since types demand 2).
	for cut := 0; cut < len(k); cut++ {
		if _, err := DecodeKey(k[:cut], []Type{TypeString, TypeInt}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeKey(append(k, 7), []Type{TypeString, TypeInt}); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeKey([]byte{0x77}, []Type{TypeInt}); err == nil {
		t.Fatal("bad rank byte accepted")
	}
}

// TestKeyValues: KeyValues counts the values of a whole key — strings
// with escaped zeros included — and rejects every cut inside a value, a
// successor (KeySuccessor appends a byte no value starts with) and a bad
// rank byte.
func TestKeyValues(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		row := Row{Str("a\x00b\x00")}
		for n := rng.Intn(3); n > 0; n-- {
			row = append(row, randValue(rng))
		}
		rng.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
		k := EncodeKey(nil, row...)
		if got := KeyValues(k); got != len(row) {
			t.Fatalf("KeyValues(%v) = %d, want %d", row, got, len(row))
		}
		whole := map[int]int{}
		for j := 0; j <= len(row); j++ {
			whole[len(EncodeKey(nil, row[:j]...))] = j
		}
		for cut := 0; cut < len(k); cut++ {
			want, ok := whole[cut]
			if !ok {
				want = -1
			}
			if got := KeyValues(k[:cut]); got != want {
				t.Fatalf("KeyValues(%v cut at %d) = %d, want %d", row, cut, got, want)
			}
		}
		if got := KeyValues(KeySuccessor(k)); got != -1 {
			t.Fatalf("KeyValues of %v's successor = %d, want -1", row, got)
		}
	}
	if got := KeyValues([]byte{0x77}); got != -1 {
		t.Fatalf("bad rank byte: KeyValues = %d, want -1", got)
	}
}

// TestKeyEqual: two values are KeyEqual exactly when Compare calls them
// equal and their key encodings are the same bytes — over the pairs
// where the two disagree (±0.0, NaN, ints past 2^53, 3 against 3.0) and
// random values.
func TestKeyEqual(t *testing.T) {
	pool := []Value{Null(), Bool(false), Bool(true), Int(0), Int(3), Int(-1), Int(1 << 53), Int(1<<53 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(3), Float(-1), Float(1 << 53), Float(math.NaN()),
		Float(math.Inf(1)), Str(""), Str("\x00"), Str("3")}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 200; i++ {
		pool = append(pool, randValue(rng))
	}
	for _, a := range pool {
		for _, b := range pool {
			want := Compare(a, b) == 0 && bytes.Equal(EncodeKey(nil, a), EncodeKey(nil, b))
			if got := KeyEqual(a, b); got != want {
				t.Fatalf("KeyEqual(%s %v, %s %v) = %v, want %v", a.T, a, b.T, b, got, want)
			}
		}
	}
	if KeyEqual(Float(0), Float(math.Copysign(0, -1))) || KeyEqual(Float(math.NaN()), Float(3)) || !KeyEqual(Int(3), Float(3)) {
		t.Fatal("±0.0 are one key, NaN equals 3, or 3 and 3.0 are two keys")
	}
}
