package expr

import (
	"cmp"
	"fmt"
)

// Filter is a restriction prepared once per retrieval: host variables
// are resolved at construction, and the top-level conjunction is laid
// out as a flat term list so the common column-vs-constant comparison is
// decided without walking a tree. Eval's results and errors are exactly
// EvalPred's on the restriction and bindings the filter was built from —
// EvalPred stays the reference the tests compare against. A Filter is
// immutable after construction and may be shared by goroutines; the nil
// Filter is the absent restriction and accepts every row.
type Filter struct {
	terms []filterTerm
	binds Bindings
}

// filterTerm is one top-level conjunct. A comparison of a column with a
// constant or a bound parameter is spelled out in col/op/c and keeps
// the conjunct itself as src, evaluated only to name an error; for any
// other conjunct col is -1 and src is its bound tree.
type filterTerm struct {
	src Expr
	col int
	op  CmpOp // oriented column-op-constant
	c   Value
}

// NewFilter prepares restriction e under binds. It never fails: an
// unbound parameter surfaces as ErrUnboundParam from the first row whose
// evaluation reaches it, exactly as EvalPred reports it.
func NewFilter(e Expr, binds Bindings) *Filter {
	if e == nil {
		return nil
	}
	f := &Filter{binds: binds}
	if and, ok := e.(*And); ok {
		f.terms = make([]filterTerm, 0, len(and.Kids))
	}
	f.add(e)
	return f
}

// add appends e's top-level conjuncts, left to right, to the term list.
func (f *Filter) add(e Expr) {
	if and, ok := e.(*And); ok {
		for _, k := range and.Kids {
			f.add(k)
		}
		return
	}
	t := filterTerm{src: e, col: -1}
	if cp, ok := e.(*Cmp); ok {
		l, lcol := cp.L.(*ColRef)
		r, rcol := cp.R.(*ColRef)
		if c, ok := constOf(cp.R, f.binds); ok && lcol && l.Index >= 0 {
			t.col, t.op, t.c = l.Index, cp.Op, c
		} else if c, ok := constOf(cp.L, f.binds); ok && rcol && r.Index >= 0 {
			t.col, t.op, t.c = r.Index, cp.Op.Flip(), c
		}
	}
	if t.col < 0 && len(f.binds) > 0 {
		t.src = bind(e, f.binds)
	}
	f.terms = append(f.terms, t)
}

// constOf resolves a comparison operand that is constant under binds.
func constOf(e Expr, binds Bindings) (Value, bool) {
	switch t := e.(type) {
	case *Const:
		return t.V, true
	case *Param:
		v, ok := binds[t.Name]
		return v, ok
	}
	return Value{}, false
}

// bind returns a copy of e with every parameter bound in binds replaced
// by its value; unbound parameters stay and fail when evaluated.
func bind(e Expr, binds Bindings) Expr {
	switch t := e.(type) {
	case *Param:
		if v, ok := binds[t.Name]; ok {
			return Lit(v)
		}
	case *Cmp:
		return &Cmp{Op: t.Op, L: bind(t.L, binds), R: bind(t.R, binds)}
	case *And:
		return &And{Kids: bindAll(t.Kids, binds)}
	case *Or:
		return &Or{Kids: bindAll(t.Kids, binds)}
	case *Not:
		return &Not{Kid: bind(t.Kid, binds)}
	}
	return e
}

func bindAll(kids []Expr, binds Bindings) []Expr {
	out := make([]Expr, len(kids))
	for i, k := range kids {
		out[i] = bind(k, binds)
	}
	return out
}

// Eval reports whether row passes the restriction. Terms are evaluated
// left to right and the first false one decides, so a type mismatch or
// an unbound parameter in a later term stays hidden — AND's
// short-circuit.
func (f *Filter) Eval(row Row) (bool, error) {
	if f == nil {
		return true, nil
	}
	for i := range f.terms {
		t := &f.terms[i]
		if t.col >= 0 && t.col < len(row) {
			v := &row[t.col]
			switch {
			case v.T == TypeInt && t.c.T == TypeInt:
				if !t.op.holds(cmp.Compare(v.I, t.c.I)) {
					return false, nil
				}
				continue
			case v.T == TypeNull || t.c.T == TypeNull:
				return false, nil
			case Comparable(v.T, t.c.T):
				if !t.op.holds(Compare(*v, t.c)) {
					return false, nil
				}
				continue
			}
		}
		// Everything else — OR, NOT, column-vs-column, and every error
		// case of a comparison — is the tree's to decide.
		v, err := t.src.Eval(row, f.binds)
		if err != nil {
			return false, err
		}
		if v.T != TypeBool {
			return false, fmt.Errorf("%w: %s", ErrNotBoolean, t.src)
		}
		if v.I == 0 {
			return false, nil
		}
	}
	return true, nil
}
