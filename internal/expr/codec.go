package expr

import (
	"encoding/binary"
	"errors"
	"unsafe"
)

// ErrCorruptRecord is returned when a stored record cannot be decoded.
var ErrCorruptRecord = errors.New("expr: corrupt record")

// EncodeRow serializes a row into a fresh record; see AppendRow.
func EncodeRow(r Row) []byte { return AppendRow(make([]byte, 0, 8+8*len(r)), r) }

// AppendRow appends the compact binary record of a row for heap-file
// storage to buf. The format is: uvarint column count, then per column a
// type byte followed by a type-specific payload (varint for ints and
// bools, 8-byte IEEE for floats, uvarint length + bytes for strings).
func AppendRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = append(buf, byte(v.T))
		switch v.T {
		case TypeNull:
		case TypeBool, TypeInt:
			buf = binary.AppendVarint(buf, v.I)
		case TypeFloat:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
		case TypeString:
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		}
	}
	return buf
}

// ColSet is a set of column positions: the columns somebody reads. The
// nil set means every column; Cols builds a proper subset.
type ColSet []bool

// Cols returns the set of the given positions of a width-column row
// (never nil: no positions means no columns). Positions outside the row
// are ignored.
func Cols(width int, cols ...int) ColSet {
	s := make(ColSet, width)
	for _, c := range cols {
		if c >= 0 && c < width {
			s[c] = true
		}
	}
	return s
}

// Has reports whether column i is in the set.
func (s ColSet) Has(i int) bool { return s == nil || (i < len(s) && s[i]) }

// DecodeRow parses a record produced by EncodeRow into a fresh row: the
// all-columns use of the record decoder. Like DecodeView it copies no
// string: they view b, which must not change while the row is held.
// Every caller decodes a stored record, which is never written again.
func DecodeRow(b []byte) (Row, error) { return DecodeView(b, nil, nil) }

// DecodeView decodes record b into dst[:0] (reusing dst's backing array
// when it is wide enough) as a full-width row that carries the columns
// in need and NULL everywhere else. The whole record is walked and
// validated whatever need says. String values share b's memory instead
// of copying it, so the row is as stable as b: a stored record is never
// written again (storage.Page), and a row kept for ever keeps its
// record's arena alive.
func DecodeView(b []byte, dst Row, need ColSet) (Row, error) {
	n, k := shortUvarint(b)
	if k == 0 {
		n, k = binary.Uvarint(b)
	}
	// Every column takes at least its type byte, so a count beyond the
	// record's length is corrupt — checked before it sizes an allocation.
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, ErrCorruptRecord
	}
	b = b[k:]
	r := dst[:0]
	if uint64(cap(r)) < n {
		r = make(Row, n)
	}
	r = r[:n]
	for i := range r {
		if len(b) == 0 {
			return nil, ErrCorruptRecord
		}
		has := need.Has(i)
		v := Value{T: Type(b[0])}
		b = b[1:]
		switch v.T {
		case TypeNull:
		case TypeBool, TypeInt:
			ux, k := shortUvarint(b)
			if k == 0 {
				ux, k = binary.Uvarint(b)
			}
			if k <= 0 {
				return nil, ErrCorruptRecord
			}
			b = b[k:]
			v.I = int64(ux >> 1) // zigzag, as binary.Varint decodes it
			if ux&1 != 0 {
				v.I = ^v.I
			}
		case TypeFloat:
			if len(b) < 8 {
				return nil, ErrCorruptRecord
			}
			v.I = int64(binary.LittleEndian.Uint64(b))
			b = b[8:]
		case TypeString:
			l, k := shortUvarint(b)
			if k == 0 {
				l, k = binary.Uvarint(b)
			}
			if k <= 0 || uint64(len(b)-k) < l {
				return nil, ErrCorruptRecord
			}
			b = b[k:]
			if has {
				v.S = viewString(b[:l])
			}
			b = b[l:]
		default:
			return nil, ErrCorruptRecord
		}
		if !has {
			v = Value{}
		}
		r[i] = v
	}
	if len(b) != 0 {
		return nil, ErrCorruptRecord
	}
	return r, nil
}

// shortUvarint decodes the 1-, 2- and 3-byte uvarints, which hold the
// ints and string lengths of typical records, where binary.Uvarint would
// loop; k=0 leaves anything else — longer, truncated or overlong — to
// binary.Uvarint. Together they accept exactly what binary.Uvarint
// accepts, non-minimal encodings included.
func shortUvarint(b []byte) (uint64, int) {
	switch {
	case len(b) > 0 && b[0] < 0x80:
		return uint64(b[0]), 1
	case len(b) > 1 && b[1] < 0x80:
		return uint64(b[1])<<7 + uint64(b[0]) - 0x80, 2
	case len(b) > 2 && b[2] < 0x80:
		return uint64(b[2])<<14 + uint64(b[1])<<7 + uint64(b[0]) - 0x4080, 3
	}
	return 0, 0
}

// viewString returns b's bytes as a string without copying them. It is
// as stable as b: stored records and index keys are replaced, never
// modified in place, which is what lets a scan read a view of one.
func viewString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
