// Package expr provides typed values, row encoding, order-preserving key
// encoding, and Boolean predicate trees over rows.
//
// Predicates are the restrictions of the paper: AND/OR/NOT combinations
// of comparisons between columns, constants, and host-language parameters
// (the ":A1" of Section 4). The package also extracts per-column ranges
// from a restriction, which is what the initial estimation stage of the
// dynamic optimizer feeds to the B-tree descent estimator.
package expr

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Type enumerates the value types of the mini data model.
type Type uint8

// Supported types. Null sorts below every other value.
const (
	TypeNull Type = iota
	TypeBool
	TypeInt
	TypeFloat
	TypeString
)

func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return "BOOL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "STRING"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a dynamically typed scalar. The zero value is NULL. It is 32
// bytes: a delivered row costs that per column, so the three numeric
// types share one payload.
type Value struct {
	T Type
	I int64  // TypeInt, TypeBool (0/1), and TypeFloat's IEEE-754 bits (see Float)
	S string // TypeString
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{T: TypeInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{T: TypeFloat, I: int64(math.Float64bits(f))} }

// Float returns the number held by a TypeFloat value.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// Str returns a string value.
func Str(s string) Value { return Value{T: TypeString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{T: TypeBool}
	if b {
		v.I = 1
	}
	return v
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// Truth reports whether v is the boolean TRUE.
func (v Value) Truth() bool { return v.T == TypeBool && v.I != 0 }

// AsFloat converts numeric values to float64. It returns false for
// non-numeric values.
func (v Value) AsFloat() (float64, bool) {
	switch v.T {
	case TypeInt:
		return float64(v.I), true
	case TypeFloat:
		return v.Float(), true
	default:
		return 0, false
	}
}

func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case TypeString:
		return strconv.Quote(v.S)
	default:
		return "?"
	}
}

// Compare orders two values: -1, 0, +1. Ints and floats compare
// numerically with each other. Values of incomparable types order by
// type tag (NULL < BOOL < numbers < STRING), which gives a total order
// usable for sorting; predicate evaluation rejects such comparisons
// separately.
func Compare(a, b Value) int {
	// Exact integer comparison when both sides are ints, to avoid float
	// rounding at the extremes of int64 (and the common case, decided
	// first).
	if a.T == TypeInt && b.T == TypeInt {
		return cmp.Compare(a.I, b.I)
	}
	an, aok := a.AsFloat()
	bn, bok := b.AsFloat()
	if aok && bok {
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		default:
			return 0
		}
	}
	if a.T != b.T {
		ta, tb := rankType(a.T), rankType(b.T)
		switch {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		}
	}
	switch a.T {
	case TypeNull:
		return 0
	case TypeBool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	case TypeString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// rankType collapses INT and FLOAT to one rank so the type order used
// for incomparable values is consistent with numeric cross-comparison.
func rankType(t Type) int {
	switch t {
	case TypeNull:
		return 0
	case TypeBool:
		return 1
	case TypeInt, TypeFloat:
		return 2
	case TypeString:
		return 3
	default:
		return 4
	}
}

// Comparable reports whether values of types a and b can be compared by
// a predicate without a type error.
func Comparable(a, b Type) bool {
	if a == TypeNull || b == TypeNull {
		return true // NULL comparisons evaluate to false, not an error
	}
	return rankType(a) == rankType(b)
}

// Row is a sequence of column values.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}
