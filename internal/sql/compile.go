package sql

import (
	"fmt"
	"strings"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
)

// Compiled is a statement bound to a table, ready for execution with
// per-run bindings.
type Compiled struct {
	Stmt  *SelectStmt
	Query *core.Query
	// Join is set instead of Query when the statement names more than
	// one table: the engine routes it through the dynamic join path.
	Join *core.JoinQuery
	// CountStar marks aggregate execution (engine counts rows).
	CountStar bool
	// Exists marks boolean existence execution.
	Exists bool
	// Agg is the single-column aggregate, if any.
	Agg *Aggregate
	// Explain marks plan description instead of full execution.
	Explain bool
	// Analyze marks EXPLAIN ANALYZE: execute fully, then describe what
	// actually happened.
	Analyze bool
}

// Compile resolves the statement's names against the catalog and builds
// the core query. Section 4's goal-inference rules are applied: a LIMIT
// controller sets fast-first, a COUNT or SORT controller sets
// total-time, otherwise the user's OPTIMIZE FOR request (or the
// default) decides.
func Compile(cat *catalog.Catalog, stmt *SelectStmt) (*Compiled, error) {
	if len(stmt.Tables) > 1 {
		return compileJoin(cat, stmt)
	}
	tab, err := cat.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	q := &core.Query{Table: tab, Limit: stmt.Limit}

	switch stmt.Optimize {
	case OptimizeFastFirst:
		q.Goal = core.GoalFastFirst
	case OptimizeTotalTime:
		q.Goal = core.GoalTotalTime
	}
	// The controlling node, in the paper's priority: LIMIT -> fast
	// first; COUNT -> total time. ORDER BY does not set a SORT
	// controller here: a SORT node only exists when no order-needed
	// index delivers the order, which the optimizer decides at
	// start-retrieval time (its sort fallback applies ControlSort to
	// the inner retrieval).
	switch {
	case stmt.Exists:
		q.Control = core.ControlExists
		q.Limit = 1
	case stmt.Limit > 0:
		q.Control = core.ControlLimit
	case stmt.CountStar || stmt.Agg != nil:
		q.Control = core.ControlAggregate
	}

	if stmt.Where != nil {
		e, err := compileNode(tab, stmt.Where)
		if err != nil {
			return nil, err
		}
		q.Restriction = e
	}
	if stmt.Columns != nil {
		q.Projection = make([]int, len(stmt.Columns))
		for i, name := range stmt.Columns {
			ci, err := tab.ColumnIndex(name)
			if err != nil {
				return nil, err
			}
			q.Projection[i] = ci
		}
	}
	if stmt.CountStar || stmt.Exists {
		// Counting and existence need no column values: project nothing,
		// so an index over the restriction's columns is self-sufficient.
		q.Projection = []int{}
	}
	if stmt.Agg != nil {
		ci, err := tab.ColumnIndex(stmt.Agg.Col)
		if err != nil {
			return nil, err
		}
		switch tab.Columns[ci].Type {
		case expr.TypeInt, expr.TypeFloat:
		default:
			return nil, fmt.Errorf("sql: %s over non-numeric column %s", stmt.Agg.Kind, stmt.Agg.Col)
		}
		q.Projection = []int{ci}
	}
	for _, name := range stmt.OrderBy {
		ci, err := tab.ColumnIndex(name)
		if err != nil {
			return nil, err
		}
		q.OrderBy = append(q.OrderBy, ci)
	}
	q.OrderDesc = stmt.OrderDesc
	return &Compiled{Stmt: stmt, Query: q, CountStar: stmt.CountStar, Exists: stmt.Exists, Explain: stmt.Explain, Analyze: stmt.Analyze, Agg: stmt.Agg}, nil
}

func compileNode(tab *catalog.Table, n Node) (expr.Expr, error) {
	switch t := n.(type) {
	case ColNode:
		ci, err := tab.ColumnIndex(t.Name)
		if err != nil {
			return nil, err
		}
		return expr.Col(ci, t.Name), nil
	case LitNode:
		return expr.Lit(t.V), nil
	case ParamNode:
		return expr.Var(t.Name), nil
	case CmpNode:
		l, err := compileNode(tab, t.L)
		if err != nil {
			return nil, err
		}
		r, err := compileNode(tab, t.R)
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(t.Op, l, r), nil
	case AndNode:
		kids := make([]expr.Expr, len(t.Kids))
		for i, k := range t.Kids {
			var err error
			if kids[i], err = compileNode(tab, k); err != nil {
				return nil, err
			}
		}
		return expr.NewAnd(kids...), nil
	case OrNode:
		kids := make([]expr.Expr, len(t.Kids))
		for i, k := range t.Kids {
			var err error
			if kids[i], err = compileNode(tab, k); err != nil {
				return nil, err
			}
		}
		return expr.NewOr(kids...), nil
	case NotNode:
		kid, err := compileNode(tab, t.Kid)
		if err != nil {
			return nil, err
		}
		return expr.NewNot(kid), nil
	default:
		return nil, fmt.Errorf("sql: unknown node type %T", n)
	}
}

// colRef names one column of one FROM table.
type colRef struct{ t, c int }

// joinCompiler resolves names across every FROM table and assembles
// the core.JoinQuery.
type joinCompiler struct {
	tables []*catalog.Table
	names  []string // effective name per table: its alias, else its catalog name
	offs   []int
}

// resolve maps a (possibly qualified) column name to its table and
// table-local position. Qualified names match the table's effective name
// — its declared alias when one exists (an alias hides the underlying
// name, which is what makes self-joins resolvable). Unqualified names
// must be unique across the FROM tables.
func (jc *joinCompiler) resolve(name string) (colRef, error) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		tn, cn := name[:i], name[i+1:]
		for ti, tab := range jc.tables {
			if jc.names[ti] == tn {
				ci, err := tab.ColumnIndex(cn)
				if err != nil {
					return colRef{}, err
				}
				return colRef{ti, ci}, nil
			}
		}
		return colRef{}, fmt.Errorf("sql: table %s is not in the FROM clause", tn)
	}
	found := colRef{t: -1}
	for ti, tab := range jc.tables {
		ci, err := tab.ColumnIndex(name)
		if err != nil {
			continue
		}
		if found.t >= 0 {
			return colRef{}, fmt.Errorf("sql: column %s is ambiguous between %s and %s (qualify it)",
				name, jc.names[found.t], jc.names[ti])
		}
		found = colRef{ti, ci}
	}
	if found.t < 0 {
		return colRef{}, fmt.Errorf("sql: unknown column %s", name)
	}
	return found, nil
}

// flat converts a reference to its flat-row position.
func (jc *joinCompiler) flat(r colRef) int { return jc.offs[r.t] + r.c }

// compileNode builds the expression for one WHERE node, mapping each
// column reference through pos (flat or table-local).
func (jc *joinCompiler) compileNode(n Node, pos func(colRef) int) (expr.Expr, error) {
	switch t := n.(type) {
	case ColNode:
		r, err := jc.resolve(t.Name)
		if err != nil {
			return nil, err
		}
		return expr.Col(pos(r), t.Name), nil
	case LitNode:
		return expr.Lit(t.V), nil
	case ParamNode:
		return expr.Var(t.Name), nil
	case CmpNode:
		l, err := jc.compileNode(t.L, pos)
		if err != nil {
			return nil, err
		}
		r, err := jc.compileNode(t.R, pos)
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(t.Op, l, r), nil
	case AndNode:
		kids := make([]expr.Expr, len(t.Kids))
		for i, k := range t.Kids {
			var err error
			if kids[i], err = jc.compileNode(k, pos); err != nil {
				return nil, err
			}
		}
		return expr.NewAnd(kids...), nil
	case OrNode:
		kids := make([]expr.Expr, len(t.Kids))
		for i, k := range t.Kids {
			var err error
			if kids[i], err = jc.compileNode(k, pos); err != nil {
				return nil, err
			}
		}
		return expr.NewOr(kids...), nil
	case NotNode:
		kid, err := jc.compileNode(t.Kid, pos)
		if err != nil {
			return nil, err
		}
		return expr.NewNot(kid), nil
	default:
		return nil, fmt.Errorf("sql: unknown node type %T", n)
	}
}

// nodeTables collects which FROM tables a node references.
func (jc *joinCompiler) nodeTables(n Node, set map[int]bool) error {
	switch t := n.(type) {
	case nil:
	case ColNode:
		r, err := jc.resolve(t.Name)
		if err != nil {
			return err
		}
		set[r.t] = true
	case LitNode, ParamNode:
	case CmpNode:
		if err := jc.nodeTables(t.L, set); err != nil {
			return err
		}
		return jc.nodeTables(t.R, set)
	case AndNode:
		for _, k := range t.Kids {
			if err := jc.nodeTables(k, set); err != nil {
				return err
			}
		}
	case OrNode:
		for _, k := range t.Kids {
			if err := jc.nodeTables(k, set); err != nil {
				return err
			}
		}
	case NotNode:
		return jc.nodeTables(t.Kid, set)
	default:
		return fmt.Errorf("sql: unknown node type %T", n)
	}
	return nil
}

// conjuncts flattens nested ANDs into a list of top-level conjuncts.
func conjuncts(n Node, out []Node) []Node {
	if a, ok := n.(AndNode); ok {
		for _, k := range a.Kids {
			out = conjuncts(k, out)
		}
		return out
	}
	return append(out, n)
}

// compileJoin builds a core.JoinQuery from a multi-table SELECT: WHERE
// conjuncts are split into per-table local restrictions, cross-table
// equi-join predicates, and a flat-position residual.
func compileJoin(cat *catalog.Catalog, stmt *SelectStmt) (*Compiled, error) {
	jc := &joinCompiler{offs: []int{}}
	seen := map[string]bool{}
	off := 0
	aliased := false
	for i, name := range stmt.Tables {
		eff := name
		if i < len(stmt.Aliases) && stmt.Aliases[i] != "" {
			eff = stmt.Aliases[i]
			aliased = true
		}
		if seen[eff] {
			if eff == name {
				return nil, fmt.Errorf("sql: table %s appears twice in FROM; alias one occurrence (FROM %s a JOIN %s b ON ...)",
					name, name, name)
			}
			return nil, fmt.Errorf("sql: alias %s appears twice in FROM", eff)
		}
		seen[eff] = true
		tab, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		jc.tables = append(jc.tables, tab)
		jc.names = append(jc.names, eff)
		jc.offs = append(jc.offs, off)
		off += len(tab.Columns)
	}
	jq := &core.JoinQuery{
		Tables: jc.tables,
		Local:  make([]expr.Expr, len(jc.tables)),
		Limit:  stmt.Limit,
	}
	if aliased {
		jq.Names = append([]string(nil), jc.names...)
	}

	switch stmt.Optimize {
	case OptimizeFastFirst:
		jq.Goal = core.GoalFastFirst
	case OptimizeTotalTime:
		jq.Goal = core.GoalTotalTime
	}
	switch {
	case stmt.Exists:
		jq.Control = core.ControlExists
		jq.Limit = 1
	case stmt.Limit > 0:
		jq.Control = core.ControlLimit
	case stmt.CountStar || stmt.Agg != nil:
		jq.Control = core.ControlAggregate
	}

	// Split the WHERE conjunction. A top-level col = col comparison
	// across two tables is an equi-join edge; a conjunct touching one
	// table joins that table's local restriction; anything else spans
	// tables and becomes residual.
	var locals [][]expr.Expr
	locals = make([][]expr.Expr, len(jc.tables))
	var residual []expr.Expr
	if stmt.Where != nil {
		for _, cj := range conjuncts(stmt.Where, nil) {
			if cmp, ok := cj.(CmpNode); ok && cmp.Op == expr.EQ {
				lc, lok := cmp.L.(ColNode)
				rc, rok := cmp.R.(ColNode)
				if lok && rok {
					lr, err := jc.resolve(lc.Name)
					if err != nil {
						return nil, err
					}
					rr, err := jc.resolve(rc.Name)
					if err != nil {
						return nil, err
					}
					if lr.t != rr.t {
						jq.Preds = append(jq.Preds, core.JoinPred{LT: lr.t, LC: lr.c, RT: rr.t, RC: rr.c})
						continue
					}
				}
			}
			set := map[int]bool{}
			if err := jc.nodeTables(cj, set); err != nil {
				return nil, err
			}
			if len(set) == 1 {
				var t int
				for k := range set {
					t = k
				}
				local := func(r colRef) int { return r.c }
				e, err := jc.compileNode(cj, local)
				if err != nil {
					return nil, err
				}
				locals[t] = append(locals[t], e)
			} else {
				e, err := jc.compileNode(cj, jc.flat)
				if err != nil {
					return nil, err
				}
				residual = append(residual, e)
			}
		}
	}
	for t, es := range locals {
		if len(es) == 1 {
			jq.Local[t] = es[0]
		} else if len(es) > 1 {
			jq.Local[t] = expr.NewAnd(es...)
		}
	}
	if len(residual) == 1 {
		jq.Residual = residual[0]
	} else if len(residual) > 1 {
		jq.Residual = expr.NewAnd(residual...)
	}
	if len(jq.Preds) == 0 && jq.Residual == nil {
		return nil, fmt.Errorf("sql: join of %s has no connecting predicate (cross products are not supported)",
			strings.Join(stmt.Tables, ", "))
	}

	if stmt.Columns != nil {
		jq.Projection = make([]int, len(stmt.Columns))
		for i, name := range stmt.Columns {
			r, err := jc.resolve(name)
			if err != nil {
				return nil, err
			}
			jq.Projection[i] = jc.flat(r)
		}
	}
	if stmt.CountStar || stmt.Exists {
		jq.Projection = []int{0}
	}
	if stmt.Agg != nil {
		r, err := jc.resolve(stmt.Agg.Col)
		if err != nil {
			return nil, err
		}
		switch jc.tables[r.t].Columns[r.c].Type {
		case expr.TypeInt, expr.TypeFloat:
		default:
			return nil, fmt.Errorf("sql: %s over non-numeric column %s", stmt.Agg.Kind, stmt.Agg.Col)
		}
		jq.Projection = []int{jc.flat(r)}
	}
	for _, name := range stmt.OrderBy {
		r, err := jc.resolve(name)
		if err != nil {
			return nil, err
		}
		jq.OrderBy = append(jq.OrderBy, jc.flat(r))
	}
	jq.OrderDesc = stmt.OrderDesc
	return &Compiled{Stmt: stmt, Join: jq, CountStar: stmt.CountStar, Exists: stmt.Exists, Explain: stmt.Explain, Analyze: stmt.Analyze, Agg: stmt.Agg}, nil
}

// JoinColumnNames returns the delivered column names of a join result:
// the projected names, or every table's qualified columns when the
// select list is *.
func (c *Compiled) JoinColumnNames() []string {
	st := c.Stmt
	if st.Columns != nil {
		return append([]string(nil), st.Columns...)
	}
	var out []string
	for ti, tab := range c.Join.Tables {
		qual := tab.Name
		if ti < len(c.Join.Names) && c.Join.Names[ti] != "" {
			qual = c.Join.Names[ti]
		}
		for _, col := range tab.Columns {
			out = append(out, qual+"."+col.Name)
		}
	}
	return out
}

// CompileExpr resolves a parsed WHERE-clause node against a table. DML
// execution uses it to build the deletion restriction.
func CompileExpr(cat *catalog.Catalog, table string, n Node) (expr.Expr, error) {
	if n == nil {
		return nil, nil
	}
	tab, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	return compileNode(tab, n)
}
