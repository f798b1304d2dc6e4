package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueSize: a delivered row costs one Value per column, so the
// numeric types share one payload — 32 bytes, not 40.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
	if v := Float(-2.5); v.Float() != -2.5 || v.I == 0 {
		t.Fatalf("Float(-2.5) holds %v", v.Float())
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
		{Int(-42), "-42"},
		{Float(2.5), "2.5"},
		{Str("a\"b"), `"a\"b"`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareNumericCrossType(t *testing.T) {
	if Compare(Int(3), Float(3.0)) != 0 {
		t.Error("3 should equal 3.0")
	}
	if Compare(Int(3), Float(3.5)) != -1 {
		t.Error("3 < 3.5")
	}
	if Compare(Float(-1), Int(0)) != -1 {
		t.Error("-1.0 < 0")
	}
}

func TestCompareLargeIntsExact(t *testing.T) {
	a := Int(1<<52 - 1)
	b := Int(1 << 52)
	if Compare(a, b) != -1 || Compare(b, a) != 1 {
		t.Error("large int comparison must stay exact")
	}
}

func TestCompareTypeRanks(t *testing.T) {
	// NULL < BOOL < numbers < STRING
	ordered := []Value{Null(), Bool(false), Bool(true), Int(-100), Float(1e9), Str(""), Str("z")}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Within numbers the list above is ascending; adjust for the
			// int/float pair which are genuinely ordered.
			if got != want {
				t.Fatalf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestComparable(t *testing.T) {
	if !Comparable(TypeInt, TypeFloat) {
		t.Error("int and float must be comparable")
	}
	if Comparable(TypeInt, TypeString) {
		t.Error("int and string must not be comparable")
	}
	if !Comparable(TypeNull, TypeString) {
		t.Error("NULL is comparable with anything (evaluates false)")
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Bool(rng.Intn(2) == 0)
	case 2:
		return Int(rng.Int63n(1<<50) - 1<<49)
	case 3:
		return Float(rng.NormFloat64() * 1e6)
	default:
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return Str(string(b))
	}
}

func TestCompareTransitivityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		a, b, c := randValue(rng), randValue(rng), randValue(rng)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %v <= %v <= %v but %v > %v", a, b, b, a, c)
		}
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), Str("x")}
	c := r.Clone()
	c[0] = Int(9)
	if r[0].I != 1 {
		t.Error("Clone must not alias")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(8)
		row := make(Row, n)
		for j := range row {
			row[j] = randValue(rng)
		}
		enc := EncodeRow(row)
		dec, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(dec) != len(row) {
			t.Fatalf("length %d != %d", len(dec), len(row))
		}
		for j := range row {
			if row[j].T != dec[j].T || Compare(row[j], dec[j]) != 0 {
				t.Fatalf("column %d: %v != %v", j, row[j], dec[j])
			}
		}
	}
}

func TestRowCodecRejectsCorrupt(t *testing.T) {
	row := Row{Int(5), Str("hello"), Float(1.5)}
	enc := EncodeRow(row)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeRow(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeRow(append(enc, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := DecodeRow(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestKeyEncodingPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 50000; i++ {
		a, b := randValue(rng), randValue(rng)
		// Skip NaN-producing cases: no NaNs come from randValue.
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		vc := Compare(a, b)
		kc := CompareKeys(ka, kb)
		if vc != kc {
			t.Fatalf("order mismatch: Compare(%v,%v)=%d but keys compare %d", a, b, vc, kc)
		}
	}
}

func TestKeyEncodingCompositeOrder(t *testing.T) {
	// ("a", 2) < ("a", 10) < ("ab", 0) and string prefix termination works.
	k1 := EncodeKey(nil, Str("a"), Int(2))
	k2 := EncodeKey(nil, Str("a"), Int(10))
	k3 := EncodeKey(nil, Str("ab"), Int(0))
	if CompareKeys(k1, k2) != -1 || CompareKeys(k2, k3) != -1 {
		t.Fatal("composite key order broken")
	}
}

func TestKeyEncodingEmbeddedZeros(t *testing.T) {
	a := Str("a\x00b")
	b := Str("a\x00c")
	c := Str("a")
	ka, kb, kc := EncodeKey(nil, a), EncodeKey(nil, b), EncodeKey(nil, c)
	if CompareKeys(ka, kb) != -1 {
		t.Fatal("embedded zero order broken")
	}
	if CompareKeys(kc, ka) != -1 {
		t.Fatal("prefix must sort before extension")
	}
}

func TestKeySuccessor(t *testing.T) {
	k := EncodeKey(nil, Int(41))
	s := KeySuccessor(k)
	if CompareKeys(k, s) != -1 {
		t.Fatal("successor must be greater")
	}
	next := EncodeKey(nil, Int(42))
	if CompareKeys(s, next) != -1 {
		t.Fatal("successor must sort before the next distinct key")
	}
	// The appending form, behind the key in the key's own buffer.
	buf := AppendKeySuccessor(k, k)
	if n := len(k); CompareKeys(buf[:n], k) != 0 || CompareKeys(buf[n:], s) != 0 {
		t.Fatalf("AppendKeySuccessor(k, k) = %x, want %x followed by %x", buf, k, s)
	}
}
