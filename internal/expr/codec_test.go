package expr

import (
	"errors"
	"math/rand"
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

// TestDecodeViewMatchesDecodeRow: for every needed-column subset the
// needed columns equal DecodeRow's and the rest are NULL, into a fresh
// row or a reused scratch alike.
func TestDecodeViewMatchesDecodeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var scratch Row
	for i := 0; i < 200; i++ {
		row := make(Row, rng.Intn(6))
		for j := range row {
			row[j] = randValue(rng)
		}
		rec := EncodeRow(row)
		full, err := DecodeRow(rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, need := range subsets(len(row)) {
			view, err := DecodeView(rec, scratch, need)
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

// TestOwnCopiesStringsOut: a view's strings share the record; the rows
// a Batch owns do not, and share one exactly sized slab.
func TestOwnCopiesStringsOut(t *testing.T) {
	rec := EncodeRow(Row{Int(1), Str("abc"), Str("xyz")})
	view, err := DecodeView(rec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all, some, none Batch
	all.Keep(view, nil)
	all.Keep(view, nil)
	some.Keep(view, []int{2, 0})
	none.Keep(view, []int{})
	none.Keep(view, []int{})
	rows := all.Own(nil)
	owned, picked := rows[1], some.Own(nil)[0]
	for i := range rec {
		rec[i] = '#' // what a reused page buffer would do to a view
	}
	if view[1].S == "abc" {
		t.Fatal("view does not share the record's memory; the test proves nothing")
	}
	if owned[1].S != "abc" || owned[2].S != "xyz" || picked[0].S != "xyz" || picked[1] != Int(1) || len(picked) != 2 {
		t.Fatalf("owned rows changed with the record: %v %v", owned, picked)
	}
	if len(rows) != 2 || len(rows[0]) != 3 || cap(rows[0]) != 3 {
		t.Fatalf("two kept rows are not two exact rows: %v", rows)
	}
	if empty := none.Own(rows); len(empty) != 4 || empty[3] == nil || len(empty[3]) != 0 {
		t.Fatalf("zero-width rows: %v", empty)
	}
	if again := all.Own(nil); again != nil {
		t.Fatalf("Own left the batch holding %v", again)
	}
}
