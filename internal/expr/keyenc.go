package expr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
)

// Key encoding: order-preserving ("memcomparable") byte strings, so that
// bytes-wise comparison of encoded keys matches Compare on the values.
// B-tree nodes store encoded keys; range scans and the descent-to-split
// estimator work purely on encoded bytes.
//
// Layout per value: one type-rank byte, then a payload whose bytewise
// order matches value order within the rank:
//
//	NULL   -> rank 0x01, no payload
//	BOOL   -> rank 0x02, one byte 0/1
//	number -> rank 0x03, 8 bytes (int64 and float64 share one numeric
//	          code so cross-type comparisons order correctly)
//	STRING -> rank 0x04, escaped bytes terminated by 0x00 0x01
//	          (0x00 in the data is escaped as 0x00 0xFF)
//
// Multi-column keys are simple concatenations; the terminator keeps
// string prefixes ordered before their extensions.

const (
	rankNull   = 0x01
	rankBool   = 0x02
	rankNumber = 0x03
	rankString = 0x04
)

// EncodeKey appends the order-preserving encoding of vals to dst and
// returns the extended slice.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.T {
		case TypeNull:
			dst = append(dst, rankNull)
		case TypeBool:
			dst = append(dst, rankBool, byte(v.I))
		case TypeInt:
			dst = append(dst, rankNumber)
			dst = appendNumeric(dst, float64(v.I), v.I, true)
		case TypeFloat:
			dst = append(dst, rankNumber)
			dst = appendNumeric(dst, v.Float(), 0, false)
		case TypeString:
			dst = append(dst, rankString)
			for i := 0; i < len(v.S); i++ {
				c := v.S[i]
				if c == 0x00 {
					dst = append(dst, 0x00, 0xFF)
				} else {
					dst = append(dst, c)
				}
			}
			dst = append(dst, 0x00, 0x01)
		}
	}
	return dst
}

// appendNumeric encodes a number into 8 bytes whose bytewise order
// matches numeric order, via the IEEE-754 sign-flip trick on the float64
// value. Ints and floats share this single numeric code so cross-type
// comparisons order correctly. Integer columns are assumed to stay within
// +/-2^52, where float64 is exact; the workload generators honor that
// bound.
func appendNumeric(dst []byte, f float64, i int64, isInt bool) []byte {
	if isInt {
		f = float64(i)
	}
	bits := math.Float64bits(f)
	if f >= 0 && !math.Signbit(f) {
		bits |= 1 << 63
	} else {
		bits = ^bits
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// KeyEqual reports whether two values are equal (Compare) and also encode
// to the same key, the equality an index probe or a hash of the key
// already implies: -0.0 and +0.0 are different keys, and NaN equals only
// a NaN of the same bits.
func KeyEqual(a, b Value) bool {
	if a.T == TypeInt && b.T == TypeInt {
		return a.I == b.I
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return Compare(a, b) == 0
}

// CompareKeys compares two encoded keys bytewise.
func CompareKeys(a, b []byte) int { return bytes.Compare(a, b) }

// KeySuccessor returns the smallest key strictly greater than every key
// having k as a prefix. It is used to turn inclusive upper bounds on key
// prefixes into exclusive B-tree bounds.
func KeySuccessor(k []byte) []byte {
	return AppendKeySuccessor(make([]byte, 0, len(k)+1), k)
}

// AppendKeySuccessor appends k's successor to dst, for callers that
// reuse a buffer; k may alias dst.
func AppendKeySuccessor(dst, k []byte) []byte {
	return append(append(dst, k...), 0xFF)
}

// KeyValues returns how many values the encoded key k holds, or -1
// when k is not a whole number of encoded values.
func KeyValues(k []byte) int {
	n := 0
	for ; len(k) > 0; n++ {
		w := 1
		switch k[0] {
		case rankNull:
		case rankBool:
			w = 2
		case rankNumber:
			w = 9
		case rankString:
			// Past the escaped zeros (0x00 0xFF) to the 0x00 0x01 terminator.
			for {
				z := bytes.IndexByte(k[w:], 0x00)
				if z < 0 || w+z+1 >= len(k) {
					return -1
				}
				w += z + 2
				if k[w-1] == 0x01 {
					break
				}
				if k[w-1] != 0xFF {
					return -1
				}
			}
		default:
			return -1
		}
		if w > len(k) {
			return -1
		}
		k = k[w:]
	}
	return n
}

// ErrBadKey is returned by DecodeKey for malformed encoded keys.
var ErrBadKey = errors.New("expr: malformed encoded key")

// DecodeKey parses the order-preserving encoding back into values, as a
// fresh row. The caller supplies the expected column types so the shared
// numeric code can be mapped back to INT or FLOAT; a TypeNull
// expectation accepts any type. Like DecodeKeyInto it returns views: a
// string without escaped bytes shares k's memory, so k must not change
// while the row is held — a B-tree leaf key never is.
func DecodeKey(k []byte, types []Type) (Row, error) {
	row := make(Row, len(types))
	if err := DecodeKeyInto(k, types, nil, row); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeKeyInto is the key decoder: value i of key k lands in
// dst[pos[i]] (dst[i] when pos is nil). Self-sufficient index scans use
// it to evaluate restrictions on index keys without fetching data
// records. Like DecodeView it copies nothing it can share: a string
// without escaped bytes views k's memory.
func DecodeKeyInto(k []byte, types []Type, pos []int, dst Row) error {
	for i, want := range types {
		if len(k) == 0 {
			return ErrBadKey
		}
		rank := k[0]
		k = k[1:]
		var v Value
		switch rank {
		case rankNull:
		case rankBool:
			if len(k) < 1 {
				return ErrBadKey
			}
			v = Bool(k[0] != 0)
			k = k[1:]
		case rankNumber:
			if len(k) < 8 {
				return ErrBadKey
			}
			bits := binary.BigEndian.Uint64(k)
			k = k[8:]
			if bits&(1<<63) != 0 {
				bits &^= 1 << 63
			} else {
				bits = ^bits
			}
			f := math.Float64frombits(bits)
			if want == TypeInt {
				v = Int(int64(f))
			} else {
				v = Float(f)
			}
		case rankString:
			// end walks to the 0x00 0x01 terminator; each escaped zero on
			// the way moves the bytes since from into the unescaped copy.
			var unescaped []byte
			from, end := 0, 0
			for {
				z := bytes.IndexByte(k[end:], 0x00)
				if z < 0 || end+z+1 >= len(k) {
					return ErrBadKey
				}
				end += z
				if k[end+1] == 0x01 {
					break
				}
				if k[end+1] != 0xFF {
					return ErrBadKey
				}
				unescaped = append(append(unescaped, k[from:end]...), 0x00)
				end += 2
				from = end
			}
			if unescaped == nil {
				v = Str(viewString(k[:end]))
			} else {
				v = Str(string(append(unescaped, k[from:end]...)))
			}
			k = k[end+2:]
		default:
			return ErrBadKey
		}
		if pos != nil {
			i = pos[i]
		}
		dst[i] = v
	}
	if len(k) != 0 {
		return ErrBadKey
	}
	return nil
}
