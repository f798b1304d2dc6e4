package sql

import (
	"strconv"

	"rdbdyn/internal/expr"
)

// SelectStmt is the AST of one SELECT statement.
type SelectStmt struct {
	// Columns selected; nil means '*'.
	Columns []string
	// CountStar is true for SELECT COUNT(*).
	CountStar bool
	// Agg holds a single-column aggregate (SUM/AVG/MIN/MAX) when the
	// select list is one aggregate expression.
	Agg *Aggregate
	// Exists is true for EXISTS(SELECT ...): the result is a single
	// boolean row and the retrieval is controlled by an EXISTS node.
	Exists bool
	// Explain is true for EXPLAIN <statement>: the plan is described
	// instead of executed to completion.
	Explain bool
	// Analyze is true for EXPLAIN ANALYZE <statement>: the retrieval is
	// executed to completion and the description includes what actually
	// happened (strategy, rows, attributed I/O) alongside the plan.
	Analyze bool
	// Table is the first (or only) FROM table, kept for the
	// single-table paths; Tables lists every FROM table in syntactic
	// order and always includes Table as its first element.
	Table  string
	Tables []string
	// Aliases holds each FROM table's declared alias ("" when none),
	// parallel to Tables; nil when no table is aliased. Aliases make
	// self-joins expressible: FROM T a JOIN T b ON a.X = b.Y.
	Aliases []string
	Where   Node // nil when absent
	OrderBy []string
	// OrderDesc requests descending order (applies to the whole ORDER
	// BY; mixed directions are rejected).
	OrderDesc bool
	Limit     int // 0 = none
	// Optimize is the user's OPTIMIZE FOR request.
	Optimize OptimizeGoal
}

// Aggregate is a single-column aggregate function in the select list.
type Aggregate struct {
	Kind string // SUM, AVG, MIN, MAX
	Col  string
}

// OptimizeGoal mirrors the paper's extended SQL syntax.
type OptimizeGoal uint8

// Optimization requests.
const (
	OptimizeDefault OptimizeGoal = iota
	OptimizeFastFirst
	OptimizeTotalTime
)

// Node is a WHERE-clause AST node.
type Node interface{ node() }

// ColNode references a column by name.
type ColNode struct{ Name string }

// LitNode is a literal value.
type LitNode struct{ V expr.Value }

// ParamNode is a host parameter :name.
type ParamNode struct{ Name string }

// CmpNode compares two operands.
type CmpNode struct {
	Op   expr.CmpOp
	L, R Node
}

// AndNode conjunction, OrNode disjunction, NotNode negation.
type AndNode struct{ Kids []Node }

// OrNode is a disjunction.
type OrNode struct{ Kids []Node }

// NotNode negates its child.
type NotNode struct{ Kid Node }

func (ColNode) node()   {}
func (LitNode) node()   {}
func (ParamNode) node() {}
func (CmpNode) node()   {}
func (AndNode) node()   {}
func (OrNode) node()    {}
func (NotNode) node()   {}

// Parse parses one query: SELECT ..., EXISTS(SELECT ...), either
// optionally prefixed by EXPLAIN or EXPLAIN ANALYZE.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return (&parser{toks: toks}).parseQuery()
}

// parseQuery parses the whole token stream as one query.
func (p *parser) parseQuery() (*SelectStmt, error) {
	explain := p.acceptKeyword("EXPLAIN")
	analyze := explain && p.acceptKeyword("ANALYZE")
	var stmt *SelectStmt
	var err error
	if p.acceptKeyword("EXISTS") {
		if p.peek().kind != tokLParen {
			return nil, errf(p.peek().pos, "expected ( after EXISTS")
		}
		p.next()
		stmt, err = p.parseSelect()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, errf(p.peek().pos, "expected ) closing EXISTS")
		}
		p.next()
		if stmt.CountStar || stmt.Agg != nil {
			return nil, errf(0, "EXISTS over an aggregate is not supported")
		}
		stmt.Exists = true
	} else {
		stmt, err = p.parseSelect()
		if err != nil {
			return nil, err
		}
	}
	stmt.Explain = explain
	stmt.Analyze = analyze
	if p.peek().kind != tokEOF {
		return nil, errf(p.peek().pos, "unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return errf(p.peek().pos, "expected %s, got %s", kw, p.peek())
	}
	return nil
}

// parseTableRef consumes one FROM table reference — a table name with an
// optional `[AS] alias` — appending to stmt.Tables (and stmt.Aliases once
// any table is aliased). A bare identifier is unambiguous as an alias:
// every token that can legally follow a table reference (WHERE, JOIN,
// INNER, ON, ORDER, LIMIT, OPTIMIZE, ',', EOF) is a keyword or
// punctuation, never an identifier.
func (p *parser) parseTableRef(stmt *SelectStmt, after string) error {
	tt := p.next()
	if tt.kind != tokIdent {
		return errf(tt.pos, "expected table name%s, got %s", after, tt)
	}
	stmt.Tables = append(stmt.Tables, tt.text)
	alias := ""
	if p.acceptKeyword("AS") {
		at := p.next()
		if at.kind != tokIdent {
			return errf(at.pos, "expected alias after AS, got %s", at)
		}
		alias = at.text
	} else if p.peek().kind == tokIdent {
		alias = p.next().text
	}
	if alias != "" && stmt.Aliases == nil {
		// First alias seen: backfill "" for the preceding tables so the
		// slice stays parallel to Tables.
		stmt.Aliases = make([]string, len(stmt.Tables)-1)
	}
	if stmt.Aliases != nil {
		stmt.Aliases = append(stmt.Aliases, alias)
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	switch t := p.peek(); {
	case t.kind == tokStar:
		p.next()
	case t.kind == tokKeyword && t.text == "COUNT":
		p.next()
		if p.peek().kind != tokLParen {
			return nil, errf(p.peek().pos, "expected ( after COUNT")
		}
		p.next()
		if p.peek().kind != tokStar {
			return nil, errf(p.peek().pos, "only COUNT(*) is supported")
		}
		p.next()
		if p.peek().kind != tokRParen {
			return nil, errf(p.peek().pos, "expected ) after COUNT(*")
		}
		p.next()
		stmt.CountStar = true
	case t.kind == tokKeyword && (t.text == "SUM" || t.text == "AVG" || t.text == "MIN" || t.text == "MAX"):
		p.next()
		if p.peek().kind != tokLParen {
			return nil, errf(p.peek().pos, "expected ( after %s", t.text)
		}
		p.next()
		col := p.next()
		if col.kind != tokIdent {
			return nil, errf(col.pos, "expected column name in %s(), got %s", t.text, col)
		}
		if p.peek().kind != tokRParen {
			return nil, errf(p.peek().pos, "expected ) after %s(%s", t.text, col.text)
		}
		p.next()
		stmt.Agg = &Aggregate{Kind: t.text, Col: col.text}
	default:
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, errf(t.pos, "expected column name, got %s", t)
			}
			stmt.Columns = append(stmt.Columns, t.text)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.parseTableRef(stmt, ""); err != nil {
		return nil, err
	}
	stmt.Table = stmt.Tables[0]
	// Additional FROM tables: a comma list and/or [INNER] JOIN ... ON
	// <pred>. ON predicates are ANDed into WHERE — the compiler pulls
	// equi-join conjuncts back out, so the two spellings are one shape.
	var onPreds []Node
	for {
		if p.peek().kind == tokComma {
			p.next()
			if err := p.parseTableRef(stmt, ""); err != nil {
				return nil, err
			}
			continue
		}
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		if err := p.parseTableRef(stmt, " after JOIN"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		pred, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		onPreds = append(onPreds, pred)
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if len(onPreds) > 0 {
		kids := make([]Node, 0, len(onPreds)+1)
		kids = append(kids, onPreds...)
		if stmt.Where != nil {
			kids = append(kids, stmt.Where)
		}
		if len(kids) == 1 {
			stmt.Where = kids[0]
		} else {
			stmt.Where = AndNode{Kids: kids}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		sawAsc, sawDesc := false, false
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, errf(t.pos, "expected column name in ORDER BY, got %s", t)
			}
			stmt.OrderBy = append(stmt.OrderBy, t.text)
			switch {
			case p.acceptKeyword("ASC"):
				sawAsc = true
			case p.acceptKeyword("DESC"):
				sawDesc = true
			default:
				sawAsc = true
			}
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
		if sawAsc && sawDesc {
			return nil, errf(p.peek().pos, "mixed ASC/DESC directions are not supported")
		}
		stmt.OrderDesc = sawDesc
	}
	if p.acceptKeyword("LIMIT") {
		p.acceptKeyword("TO")
		t := p.next()
		if t.kind != tokInt {
			return nil, errf(t.pos, "expected row count after LIMIT, got %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return nil, errf(t.pos, "bad LIMIT count %q", t.text)
		}
		stmt.Limit = n
		if !p.acceptKeyword("ROWS") {
			p.acceptKeyword("ROW")
		}
	}
	if p.acceptKeyword("OPTIMIZE") {
		if err := p.expectKeyword("FOR"); err != nil {
			return nil, err
		}
		switch {
		case p.acceptKeyword("FAST"):
			if err := p.expectKeyword("FIRST"); err != nil {
				return nil, err
			}
			stmt.Optimize = OptimizeFastFirst
		case p.acceptKeyword("TOTAL"):
			if err := p.expectKeyword("TIME"); err != nil {
				return nil, err
			}
			stmt.Optimize = OptimizeTotalTime
		default:
			return nil, errf(p.peek().pos, "expected FAST FIRST or TOTAL TIME")
		}
	}
	return stmt, nil
}

func (p *parser) parseOr() (Node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []Node{left}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return OrNode{Kids: kids}, nil
}

func (p *parser) parseAnd() (Node, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	kids := []Node{left}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return AndNode{Kids: kids}, nil
}

func (p *parser) parseNot() (Node, error) {
	if p.acceptKeyword("NOT") {
		kid, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return NotNode{Kid: kid}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	if p.peek().kind == tokLParen {
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, errf(p.peek().pos, "expected ), got %s", p.peek())
		}
		p.next()
		return inner, nil
	}
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	// Operand-level NOT IN / NOT BETWEEN.
	if p.acceptKeyword("NOT") {
		inner, err := p.parseSuffix(l, true)
		if err != nil {
			return nil, err
		}
		if inner == nil {
			return nil, errf(p.peek().pos, "expected IN or BETWEEN after NOT")
		}
		return inner, nil
	}
	if sfx, err := p.parseSuffix(l, false); err != nil {
		return nil, err
	} else if sfx != nil {
		return sfx, nil
	}
	opTok := p.next()
	if opTok.kind != tokOp {
		return nil, errf(opTok.pos, "expected comparison operator, got %s", opTok)
	}
	var op expr.CmpOp
	switch opTok.text {
	case "=":
		op = expr.EQ
	case "<>":
		op = expr.NE
	case "<":
		op = expr.LT
	case "<=":
		op = expr.LE
	case ">":
		op = expr.GT
	case ">=":
		op = expr.GE
	}
	r, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return CmpNode{Op: op, L: l, R: r}, nil
}

// parseSuffix handles the IN (...) and BETWEEN a AND b predicate
// suffixes on an operand (nil, nil = no suffix present). IN compiles to
// a disjunction of equalities — which the union scan can cover —
// and BETWEEN to a conjunction of range comparisons.
func (p *parser) parseSuffix(l Node, negate bool) (Node, error) {
	switch {
	case p.acceptKeyword("IN"):
		if p.peek().kind != tokLParen {
			return nil, errf(p.peek().pos, "expected ( after IN")
		}
		p.next()
		var kids []Node
		for {
			v, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			switch v.(type) {
			case LitNode, ParamNode:
			default:
				return nil, errf(p.peek().pos, "IN list entries must be literals or parameters")
			}
			kids = append(kids, CmpNode{Op: expr.EQ, L: l, R: v})
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if p.peek().kind != tokRParen {
			return nil, errf(p.peek().pos, "expected ) closing IN list")
		}
		p.next()
		var out Node = OrNode{Kids: kids}
		if len(kids) == 1 {
			out = kids[0]
		}
		if negate {
			out = NotNode{Kid: out}
		}
		return out, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		var out Node = AndNode{Kids: []Node{
			CmpNode{Op: expr.GE, L: l, R: lo},
			CmpNode{Op: expr.LE, L: l, R: hi},
		}}
		if negate {
			out = NotNode{Kid: out}
		}
		return out, nil
	default:
		return nil, nil
	}
}

func (p *parser) parseOperand() (Node, error) {
	t := p.next()
	switch t.kind {
	case tokIdent:
		return ColNode{Name: t.text}, nil
	case tokParam:
		return ParamNode{Name: t.text}, nil
	case tokInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errf(t.pos, "bad integer %q", t.text)
		}
		return LitNode{V: expr.Int(v)}, nil
	case tokFloat:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errf(t.pos, "bad float %q", t.text)
		}
		return LitNode{V: expr.Float(v)}, nil
	case tokString:
		return LitNode{V: expr.Str(t.text)}, nil
	default:
		return nil, errf(t.pos, "expected operand, got %s", t)
	}
}
