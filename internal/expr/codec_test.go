package expr

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// subsets enumerates every ColSet over width columns, plus the nil set.
func subsets(width int) []ColSet {
	out := []ColSet{nil}
	for mask := 0; mask < 1<<width; mask++ {
		var cols []int
		for c := 0; c < width; c++ {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		out = append(out, Cols(width, cols...))
	}
	return out
}

// varintBoundaries are the ints whose zigzag varints change length, or
// leave DecodeView's inline 1-3 byte path, at the extremes.
var varintBoundaries = []int64{0, 63, -63, 64, -64, 8191, -8191, 8192, -8192,
	1 << 20, -1 << 20, math.MinInt64, math.MaxInt64}

// TestDecodeViewMatchesDecodeRow: a record decodes to the row it holds,
// and for every needed-column subset the needed columns equal
// DecodeRow's and the rest are NULL, into a fresh row or a reused
// scratch alike. The records are random rows, every varint-length
// boundary as an int and as a string's length, and hand-made records
// whose count, int or string length is an overlong varint, which
// binary.Varint accepts and so the decoder does.
func TestDecodeViewMatchesDecodeRow(t *testing.T) {
	type record struct {
		rec []byte
		row Row
	}
	var recs []record
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		row := make(Row, rng.Intn(6))
		for j := range row {
			row[j] = randValue(rng)
		}
		recs = append(recs, record{EncodeRow(row), row})
	}
	for _, x := range varintBoundaries {
		row := Row{Int(x), Str(strings.Repeat("s", int(x&0x7fff)))}
		recs = append(recs, record{EncodeRow(row), row})
	}
	recs = append(recs,
		record{[]byte{0x80, 0x00}, Row{}},
		record{[]byte{0x01, byte(TypeInt), 0x80, 0x00}, Row{Int(0)}},
		record{[]byte{0x01, byte(TypeInt), 0x83, 0x80, 0x00}, Row{Int(-2)}},
		record{[]byte{0x01, byte(TypeString), 0x80, 0x80, 0x80, 0x00}, Row{Str("")}})
	var scratch Row
	for _, r := range recs {
		full, err := DecodeRow(r.rec)
		if err != nil {
			t.Fatalf("% x: %v", r.rec, err)
		}
		if len(full) != len(r.row) {
			t.Fatalf("% x: %d columns, want %d", r.rec, len(full), len(r.row))
		}
		for c := range full {
			if full[c] != r.row[c] {
				t.Fatalf("% x column %d: %v, want %v", r.rec, c, full[c], r.row[c])
			}
		}
		for _, need := range subsets(len(full)) {
			view, err := DecodeView(r.rec, scratch, need)
			if err != nil {
				t.Fatalf("need %v: %v", need, err)
			}
			scratch = view
			if len(view) != len(full) {
				t.Fatalf("need %v: width %d, want %d", need, len(view), len(full))
			}
			for c := range view {
				want := Null()
				if need.Has(c) {
					want = full[c]
				}
				if view[c] != want {
					t.Fatalf("need %v column %d: %v, want %v", need, c, view[c], want)
				}
			}
		}
	}
}

// TestDecodeViewValidatesWholeRecord: every truncation and every
// one-byte extension of a valid record is ErrCorruptRecord whatever
// columns are needed — a row the filter would reject on column 0 still
// has its last column checked.
func TestDecodeViewValidatesWholeRecord(t *testing.T) {
	row := Row{Int(5), Str("hello"), Float(1.5), Null(), Bool(true), Str("")}
	rec := EncodeRow(row)
	for _, need := range subsets(len(row)) {
		for cut := 0; cut < len(rec); cut++ {
			if _, err := DecodeView(rec[:cut], nil, need); !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("need %v: truncation at %d: %v", need, cut, err)
			}
		}
		for b := 0; b < 256; b++ {
			ext := append(append([]byte(nil), rec...), byte(b))
			if _, err := DecodeView(ext, nil, need); !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("need %v: extension by %#x: %v", need, b, err)
			}
		}
	}
	// A column count the record cannot hold must not size an allocation.
	if _, err := DecodeRow([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("absurd column count: %v", err)
	}
}

// referenceDecodeView is DecodeView as it was before its inline varint
// path: every varint through binary.Varint and binary.Uvarint. The fuzz
// target holds DecodeView to it.
func referenceDecodeView(b []byte, need ColSet) (Row, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, ErrCorruptRecord
	}
	b = b[k:]
	r := make(Row, n)
	for i := range r {
		if len(b) == 0 {
			return nil, ErrCorruptRecord
		}
		v := Value{T: Type(b[0])}
		b = b[1:]
		switch v.T {
		case TypeNull:
		case TypeBool, TypeInt:
			x, k := binary.Varint(b)
			if k <= 0 {
				return nil, ErrCorruptRecord
			}
			b = b[k:]
			v.I = x
		case TypeFloat:
			if len(b) < 8 {
				return nil, ErrCorruptRecord
			}
			v.I = int64(binary.LittleEndian.Uint64(b))
			b = b[8:]
		case TypeString:
			l, k := binary.Uvarint(b)
			if k <= 0 || uint64(len(b)-k) < l {
				return nil, ErrCorruptRecord
			}
			b = b[k:]
			v.S = string(b[:l])
			b = b[l:]
		default:
			return nil, ErrCorruptRecord
		}
		if need.Has(i) {
			r[i] = v
		}
	}
	if len(b) != 0 {
		return nil, ErrCorruptRecord
	}
	return r, nil
}

// decodeCorpus is FuzzDecodeView's seed corpus: valid records around
// every varint-length boundary, hand-made overlong, oversized and
// truncated varints, and random rows.
func decodeCorpus() [][]byte {
	var out [][]byte
	for _, x := range varintBoundaries {
		out = append(out,
			EncodeRow(Row{Int(x), Bool(x > 0), Str(strings.Repeat("s", int(x&0x3fff)))}),
			EncodeRow(Row{Int(73512), Int(x & 0x3fff), Int(17), Str(strings.Repeat("p", 60))}))
	}
	ten := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	for _, tail := range [][]byte{{0x01}, {0x00}, {0x02}, {0x80, 0x01}} { // a 10th byte above 1, or an 11th, overflows
		v := append(append([]byte{}, ten...), tail...)
		out = append(out,
			append([]byte{0x01, byte(TypeInt)}, v...),
			append([]byte{0x01, byte(TypeString)}, v...),
			append([]byte(nil), v...))
	}
	out = append(out,
		[]byte{}, []byte{0x80}, []byte{0x80, 0x00}, []byte{0x01, byte(TypeInt), 0x80, 0x00},
		[]byte{0x01, byte(TypeInt), 0x80}, []byte{0x01, byte(TypeInt), 0x80, 0x80},
		[]byte{0x01, byte(TypeInt), 0x80, 0x80, 0x80, 0x00}, []byte{0x01, byte(TypeString), 0x81, 0x80, 0x00},
		[]byte{0x02, byte(TypeInt), 0x7F, byte(TypeFloat), 1, 2, 3}, []byte{0x01, 0x09})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 32; i++ {
		row := make(Row, rng.Intn(6))
		for j := range row {
			row[j] = randValue(rng)
		}
		out = append(out, EncodeRow(row))
	}
	return out
}

// FuzzDecodeView holds the record decoder to referenceDecodeView on any
// bytes: the same rows, with the columns of need and NULL elsewhere, and
// the same ErrCorruptRecord, for every need over the first five columns
// and for the need spelled by mask.
func FuzzDecodeView(f *testing.F) {
	for i, rec := range decodeCorpus() {
		f.Add(rec, uint64(i)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, rec []byte, mask uint64) {
		var picked []int
		for c := 0; c < 64; c++ {
			if mask&(1<<c) != 0 {
				picked = append(picked, c)
			}
		}
		for _, need := range append(subsets(5), Cols(64, picked...)) {
			want, werr := referenceDecodeView(rec, need)
			got, err := DecodeView(rec, nil, need)
			if err != werr {
				t.Fatalf("% x need %v: error %v, want %v", rec, need, err, werr)
			}
			if len(got) != len(want) {
				t.Fatalf("% x need %v: %d columns, want %d", rec, need, len(got), len(want))
			}
			for c := range got {
				if got[c] != want[c] {
					t.Fatalf("% x need %v column %d: %v, want %v", rec, need, c, got[c], want[c])
				}
			}
		}
	})
}
