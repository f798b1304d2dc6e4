package expr

import (
	"fmt"
	"math"
)

// Bound is one end of a key range.
type Bound struct {
	Value     Value
	Inclusive bool
	Present   bool // false = unbounded on this side
}

// Range is an interval of values for a single column, derived from the
// sargable conjuncts of a restriction. The zero value is the full range.
//
// The initial stage of the dynamic optimizer (paper Section 5) turns each
// index's restriction portion into a Range, estimates its RID count by
// B-tree descent, and orders the indexes by ascending estimate. An Empty
// range triggers the paper's shortcut: all retrieval stages are canceled
// and "end of data" is delivered at once.
type Range struct {
	Lo, Hi Bound
}

// FullRange returns the unbounded range.
func FullRange() Range { return Range{} }

// PointRange returns the range containing exactly v.
func PointRange(v Value) Range {
	b := Bound{Value: v, Inclusive: true, Present: true}
	return Range{Lo: b, Hi: b}
}

// IsPoint reports whether the range contains at most one value.
func (r Range) IsPoint() bool {
	return r.Lo.Present && r.Hi.Present && r.Lo.Inclusive && r.Hi.Inclusive &&
		Compare(r.Lo.Value, r.Hi.Value) == 0
}

// Empty reports whether the range provably contains no values.
func (r Range) Empty() bool {
	if !r.Lo.Present || !r.Hi.Present {
		return false
	}
	d := Compare(r.Lo.Value, r.Hi.Value)
	if d > 0 {
		return true
	}
	if d == 0 {
		return !(r.Lo.Inclusive && r.Hi.Inclusive)
	}
	return false
}

// Contains reports whether v lies within the range.
func (r Range) Contains(v Value) bool {
	if r.Lo.Present {
		d := Compare(v, r.Lo.Value)
		if d < 0 || (d == 0 && !r.Lo.Inclusive) {
			return false
		}
	}
	if r.Hi.Present {
		d := Compare(v, r.Hi.Value)
		if d > 0 || (d == 0 && !r.Hi.Inclusive) {
			return false
		}
	}
	return true
}

// Intersect tightens r by o and returns the result.
func (r Range) Intersect(o Range) Range {
	out := r
	if o.Lo.Present {
		if !out.Lo.Present {
			out.Lo = o.Lo
		} else {
			d := Compare(o.Lo.Value, out.Lo.Value)
			if d > 0 || (d == 0 && !o.Lo.Inclusive) {
				out.Lo = o.Lo
			}
		}
	}
	if o.Hi.Present {
		if !out.Hi.Present {
			out.Hi = o.Hi
		} else {
			d := Compare(o.Hi.Value, out.Hi.Value)
			if d < 0 || (d == 0 && !o.Hi.Inclusive) {
				out.Hi = o.Hi
			}
		}
	}
	return out
}

func (r Range) String() string {
	lo, hi := "(-inf", "+inf)"
	if r.Lo.Present {
		br := "("
		if r.Lo.Inclusive {
			br = "["
		}
		lo = br + r.Lo.Value.String()
	}
	if r.Hi.Present {
		br := ")"
		if r.Hi.Inclusive {
			br = "]"
		}
		hi = r.Hi.Value.String() + br
	}
	return lo + ", " + hi
}

// EncodedBounds converts the range into encoded-key bounds usable for a
// B-tree scan: lo inclusive, hi exclusive, either possibly nil meaning
// unbounded. The conversion relies on EncodeKey order preservation and
// KeySuccessor for inclusive upper / exclusive lower bounds.
func (r Range) EncodedBounds() (lo, hi []byte) {
	if r.Lo.Present {
		lo = EncodeKey(nil, r.Lo.Value)
		if !r.Lo.Inclusive {
			lo = KeySuccessor(lo)
		}
	}
	if r.Hi.Present {
		hi = EncodeKey(nil, r.Hi.Value)
		if r.Hi.Inclusive {
			hi = KeySuccessor(hi)
		}
	}
	return lo, hi
}

// sargable resolves c as a comparison of column col with a constant or
// a parameter bound in binds, in either operand order, oriented
// column-op-constant. ok is false when c is anything else: it references
// a different or more than one column, or its constant side cannot be
// resolved under binds.
func sargable(c *Cmp, col int, binds Bindings) (op CmpOp, v Value, ok bool) {
	constSide, op := c.R, c.Op
	if cref, ok := c.L.(*ColRef); !ok || cref.Index != col {
		cref, ok = c.R.(*ColRef)
		if !ok || cref.Index != col {
			return op, v, false
		}
		constSide, op = c.L, c.Op.Flip()
	}
	v, ok = constOf(constSide, binds)
	return op, v, ok
}

// RangeFromCmp derives the range a single comparison imposes on column
// col. The second return is false when the conjunct is not sargable for
// col (see sargable) or uses NE.
func RangeFromCmp(c *Cmp, col int, binds Bindings) (Range, bool) {
	op, v, ok := sargable(c, col, binds)
	if !ok {
		return Range{}, false
	}
	if v.IsNull() {
		// col op NULL is always false: provably empty range.
		return Range{
			Lo: Bound{Value: Int(1), Inclusive: false, Present: true},
			Hi: Bound{Value: Int(0), Inclusive: false, Present: true},
		}, true
	}
	switch op {
	case EQ:
		return PointRange(v), true
	case LT:
		return Range{Hi: Bound{Value: v, Present: true}}, true
	case LE:
		return Range{Hi: Bound{Value: v, Inclusive: true, Present: true}}, true
	case GT:
		return Range{Lo: Bound{Value: v, Present: true}}, true
	case GE:
		return Range{Lo: Bound{Value: v, Inclusive: true, Present: true}}, true
	default:
		return Range{}, false // NE is not sargable
	}
}

// ProvedByKeyRange reports whether comparison c of column col, a column
// of type t, holds for every non-NULL value whose encoded key lies
// within the encoded bounds of c's own range (RangeFromCmp,
// EncodedBounds) — so that a scan of a key range at least that tight,
// holding no NULL key, need not evaluate c. That takes a constant on
// which key order and Compare agree against every value the column can
// hold: the column's own type, or a FLOAT against an INT column; an INT
// within float64's exact range (keys encode numbers as float64), no NaN
// and no negative zero (Compare calls them equal to what key order puts
// beside them), and no FLOAT column, whose stored values could be
// either. A NULL, mismatched or unbound constant proves nothing: the
// comparison stays in the filter and fails there as it always did.
func ProvedByKeyRange(c *Cmp, col int, t Type, binds Bindings) bool {
	op, v, ok := sargable(c, col, binds)
	if !ok || op == NE {
		return false
	}
	switch {
	case t == TypeInt && v.T == TypeInt:
		return -1<<53 < v.I && v.I < 1<<53
	case t == TypeInt && v.T == TypeFloat:
		f := v.Float()
		return f == f && !(f == 0 && math.Signbit(f))
	}
	return v.T == t && (t == TypeBool || t == TypeString)
}

// ExtractRange scans the top-level conjuncts of e and intersects every
// sargable restriction on column col into a single Range. It returns the
// range and the number of conjuncts that contributed (0 means the index
// on col gets no restriction from e).
func ExtractRange(e Expr, col int, binds Bindings) (Range, int) {
	r := FullRange()
	n := 0
	for _, cj := range Conjuncts(e) {
		c, ok := cj.(*Cmp)
		if !ok {
			continue
		}
		cr, ok := RangeFromCmp(c, col, binds)
		if !ok {
			continue
		}
		r = r.Intersect(cr)
		n++
	}
	return r, n
}

// Validate walks the tree and reports structural errors (nil children,
// unknown node types) without needing a row.
func Validate(e Expr) error {
	switch t := e.(type) {
	case nil:
		return nil
	case *ColRef, *Const, *Param:
		return nil
	case *Cmp:
		if t.L == nil || t.R == nil {
			return fmt.Errorf("expr: comparison with nil operand")
		}
		if err := Validate(t.L); err != nil {
			return err
		}
		return Validate(t.R)
	case *And:
		for _, k := range t.Kids {
			if k == nil {
				return fmt.Errorf("expr: AND with nil child")
			}
			if err := Validate(k); err != nil {
				return err
			}
		}
		return nil
	case *Or:
		for _, k := range t.Kids {
			if k == nil {
				return fmt.Errorf("expr: OR with nil child")
			}
			if err := Validate(k); err != nil {
				return err
			}
		}
		return nil
	case *Not:
		if t.Kid == nil {
			return fmt.Errorf("expr: NOT with nil child")
		}
		return Validate(t.Kid)
	default:
		return fmt.Errorf("expr: unknown node type %T", e)
	}
}
