package sql

// DML statements: INSERT INTO t VALUES (...), (...),
// UPDATE t SET ... [WHERE ...] and DELETE FROM t [WHERE ...].
// ParseStatement parses them and SELECT from one token pass.

// Statement is any parsed statement.
type Statement interface{ stmt() }

func (*SelectStmt) stmt() {}
func (*InsertStmt) stmt() {}
func (*DeleteStmt) stmt() {}
func (*UpdateStmt) stmt() {}

// InsertStmt is INSERT INTO table VALUES (v, ...), (...). Values are
// literals or :parameters.
type InsertStmt struct {
	Table string
	Rows  [][]Node
}

// DeleteStmt is DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Node // nil = delete everything
}

// UpdateStmt is UPDATE table SET col = value [, ...] [WHERE ...].
// Values are literals or :parameters.
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Node
}

// SetClause is one col = value assignment.
type SetClause struct {
	Col   string
	Value Node // LitNode or ParamNode
}

// ParseStatement parses any supported statement: SELECT (with the
// EXISTS/EXPLAIN forms), INSERT, UPDATE, or DELETE. The text is lexed
// once, whichever form it turns out to be.
func ParseStatement(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	switch t := p.peek(); {
	case t.kind == tokKeyword && t.text == "INSERT":
		return p.parseInsert()
	case t.kind == tokKeyword && t.text == "DELETE":
		return p.parseDelete()
	case t.kind == tokKeyword && t.text == "UPDATE":
		return p.parseUpdate()
	default:
		stmt, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		return stmt, nil
	}
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	tt := p.next()
	if tt.kind != tokIdent {
		return nil, errf(tt.pos, "expected table name, got %s", tt)
	}
	stmt := &InsertStmt{Table: tt.text}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if p.peek().kind != tokLParen {
			return nil, errf(p.peek().pos, "expected ( starting a VALUES row")
		}
		p.next()
		var row []Node
		for {
			v, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			switch v.(type) {
			case LitNode, ParamNode:
			default:
				return nil, errf(p.peek().pos, "VALUES entries must be literals or parameters")
			}
			row = append(row, v)
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if p.peek().kind != tokRParen {
			return nil, errf(p.peek().pos, "expected ) closing a VALUES row")
		}
		p.next()
		stmt.Rows = append(stmt.Rows, row)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.peek().kind != tokEOF {
		return nil, errf(p.peek().pos, "unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tt := p.next()
	if tt.kind != tokIdent {
		return nil, errf(tt.pos, "expected table name, got %s", tt)
	}
	stmt := &DeleteStmt{Table: tt.text}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.peek().kind != tokEOF {
		return nil, errf(p.peek().pos, "unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	tt := p.next()
	if tt.kind != tokIdent {
		return nil, errf(tt.pos, "expected table name, got %s", tt)
	}
	stmt := &UpdateStmt{Table: tt.text}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col := p.next()
		if col.kind != tokIdent {
			return nil, errf(col.pos, "expected column name in SET, got %s", col)
		}
		op := p.next()
		if op.kind != tokOp || op.text != "=" {
			return nil, errf(op.pos, "expected = in SET, got %s", op)
		}
		v, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		switch v.(type) {
		case LitNode, ParamNode:
		default:
			return nil, errf(op.pos, "SET values must be literals or parameters")
		}
		stmt.Sets = append(stmt.Sets, SetClause{Col: col.text, Value: v})
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.peek().kind != tokEOF {
		return nil, errf(p.peek().pos, "unexpected %s after statement", p.peek())
	}
	return stmt, nil
}
