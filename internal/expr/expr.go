package expr

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Bindings supplies values for host-language parameters (":A1" in the
// paper's Section 4 example) at run time. A nil Bindings is valid and
// binds nothing.
type Bindings map[string]Value

// Errors from expression evaluation.
var (
	ErrUnboundParam  = errors.New("expr: unbound parameter")
	ErrTypeMismatch  = errors.New("expr: type mismatch in comparison")
	ErrNotBoolean    = errors.New("expr: expression is not boolean")
	ErrColumnMissing = errors.New("expr: column index out of range")
)

// Expr is a node of an expression tree evaluated against a row.
type Expr interface {
	// Eval computes the node's value for a row under bindings.
	Eval(row Row, binds Bindings) (Value, error)
	String() string
}

// ColRef references a column by position; Name is for display only.
type ColRef struct {
	Index int
	Name  string
}

// Col constructs a column reference.
func Col(index int, name string) *ColRef { return &ColRef{Index: index, Name: name} }

// Eval implements Expr.
func (c *ColRef) Eval(row Row, _ Bindings) (Value, error) {
	if c.Index < 0 || c.Index >= len(row) {
		return Null(), fmt.Errorf("%w: %d", ErrColumnMissing, c.Index)
	}
	return row[c.Index], nil
}

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("#%d", c.Index)
}

// Const is a literal value.
type Const struct{ V Value }

// Lit constructs a literal node.
func Lit(v Value) *Const { return &Const{V: v} }

// Eval implements Expr.
func (c *Const) Eval(Row, Bindings) (Value, error) { return c.V, nil }

func (c *Const) String() string { return c.V.String() }

// Param is a host-language variable, bound per run. Its presence is what
// makes a query "parametric" in the paper's sense: the right plan can
// change between runs.
type Param struct{ Name string }

// Var constructs a parameter node.
func Var(name string) *Param { return &Param{Name: name} }

// Eval implements Expr.
func (p *Param) Eval(_ Row, binds Bindings) (Value, error) {
	v, ok := binds[p.Name]
	if !ok {
		return Null(), fmt.Errorf("%w: :%s", ErrUnboundParam, p.Name)
	}
	return v, nil
}

func (p *Param) String() string { return ":" + p.Name }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// Flip returns the operator with operands swapped (a op b == b Flip(op) a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return op // EQ, NE are symmetric
	}
}

// holds reports whether a op b is true given d = Compare(a, b).
func (op CmpOp) holds(d int) bool {
	switch op {
	case EQ:
		return d == 0
	case NE:
		return d != 0
	case LT:
		return d < 0
	case LE:
		return d <= 0
	case GT:
		return d > 0
	case GE:
		return d >= 0
	default:
		return false
	}
}

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp constructs a comparison node.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Eval implements Expr. Comparisons involving NULL evaluate to FALSE
// (two-valued logic: the simulator has no UNKNOWN).
func (c *Cmp) Eval(row Row, binds Bindings) (Value, error) {
	lv, err := c.L.Eval(row, binds)
	if err != nil {
		return Null(), err
	}
	rv, err := c.R.Eval(row, binds)
	if err != nil {
		return Null(), err
	}
	if lv.IsNull() || rv.IsNull() {
		return Bool(false), nil
	}
	if !Comparable(lv.T, rv.T) {
		return Null(), fmt.Errorf("%w: %s %s %s", ErrTypeMismatch, lv.T, c.Op, rv.T)
	}
	return Bool(c.Op.holds(Compare(lv, rv))), nil
}

func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// And is an N-ary conjunction. Empty And is TRUE.
type And struct{ Kids []Expr }

// NewAnd constructs a conjunction, flattening nested Ands.
func NewAnd(kids ...Expr) *And {
	a := &And{}
	for _, k := range kids {
		if sub, ok := k.(*And); ok {
			a.Kids = append(a.Kids, sub.Kids...)
		} else {
			a.Kids = append(a.Kids, k)
		}
	}
	return a
}

// Eval implements Expr with short-circuiting.
func (a *And) Eval(row Row, binds Bindings) (Value, error) {
	for _, k := range a.Kids {
		v, err := k.Eval(row, binds)
		if err != nil {
			return Null(), err
		}
		if v.T != TypeBool {
			return Null(), fmt.Errorf("%w: AND operand %s", ErrNotBoolean, k)
		}
		if !v.Truth() {
			return Bool(false), nil
		}
	}
	return Bool(true), nil
}

func (a *And) String() string { return joinKids(a.Kids, " AND ", "TRUE") }

// Or is an N-ary disjunction. Empty Or is FALSE.
type Or struct{ Kids []Expr }

// NewOr constructs a disjunction, flattening nested Ors.
func NewOr(kids ...Expr) *Or {
	o := &Or{}
	for _, k := range kids {
		if sub, ok := k.(*Or); ok {
			o.Kids = append(o.Kids, sub.Kids...)
		} else {
			o.Kids = append(o.Kids, k)
		}
	}
	return o
}

// Eval implements Expr with short-circuiting.
func (o *Or) Eval(row Row, binds Bindings) (Value, error) {
	for _, k := range o.Kids {
		v, err := k.Eval(row, binds)
		if err != nil {
			return Null(), err
		}
		if v.T != TypeBool {
			return Null(), fmt.Errorf("%w: OR operand %s", ErrNotBoolean, k)
		}
		if v.Truth() {
			return Bool(true), nil
		}
	}
	return Bool(false), nil
}

func (o *Or) String() string { return joinKids(o.Kids, " OR ", "FALSE") }

// Not negates a boolean sub-expression.
type Not struct{ Kid Expr }

// NewNot constructs a negation.
func NewNot(kid Expr) *Not { return &Not{Kid: kid} }

// Eval implements Expr.
func (n *Not) Eval(row Row, binds Bindings) (Value, error) {
	v, err := n.Kid.Eval(row, binds)
	if err != nil {
		return Null(), err
	}
	if v.T != TypeBool {
		return Null(), fmt.Errorf("%w: NOT operand %s", ErrNotBoolean, n.Kid)
	}
	return Bool(!v.Truth()), nil
}

func (n *Not) String() string { return "NOT (" + n.Kid.String() + ")" }

func joinKids(kids []Expr, sep, empty string) string {
	if len(kids) == 0 {
		return empty
	}
	parts := make([]string, len(kids))
	for i, k := range kids {
		switch k.(type) {
		case *And, *Or:
			parts[i] = "(" + k.String() + ")"
		default:
			parts[i] = k.String()
		}
	}
	return strings.Join(parts, sep)
}

// EvalPred evaluates e as a boolean restriction on row.
func EvalPred(e Expr, row Row, binds Bindings) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(row, binds)
	if err != nil {
		return false, err
	}
	if v.T != TypeBool {
		return false, fmt.Errorf("%w: %s", ErrNotBoolean, e)
	}
	return v.Truth(), nil
}

// Conjuncts splits e into its top-level AND factors. A nil expression
// yields nil (no restriction).
func Conjuncts(e Expr) []Expr {
	switch t := e.(type) {
	case nil:
		return nil
	case *And:
		var out []Expr
		for _, k := range t.Kids {
			out = append(out, Conjuncts(k)...)
		}
		return out
	default:
		return []Expr{e}
	}
}

// Columns returns the sorted set of column indexes referenced by e.
func Columns(e Expr) []int {
	set := map[int]bool{}
	collectColumns(e, set)
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func collectColumns(e Expr, set map[int]bool) {
	switch t := e.(type) {
	case nil:
	case *ColRef:
		set[t.Index] = true
	case *Const, *Param:
	case *Cmp:
		collectColumns(t.L, set)
		collectColumns(t.R, set)
	case *And:
		for _, k := range t.Kids {
			collectColumns(k, set)
		}
	case *Or:
		for _, k := range t.Kids {
			collectColumns(k, set)
		}
	case *Not:
		collectColumns(t.Kid, set)
	}
}
