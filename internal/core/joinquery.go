package core

import (
	"fmt"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
)

// JoinPred is one equi-join predicate Tables[LT].LC = Tables[RT].RC
// between two FROM tables, in table-local column positions.
type JoinPred struct {
	LT, LC int
	RT, RC int
}

// JoinQuery is a multi-table retrieval request. Rows flow through the
// join as flat rows: the concatenation of every FROM table's columns in
// declaration order, so Projection, OrderBy, and Residual address flat
// positions (table offset + table-local column).
type JoinQuery struct {
	Tables []*catalog.Table
	// Names are the display names of the FROM tables — the alias when
	// one was declared, else the table name. Self-joins bind the same
	// *catalog.Table at two positions and tell them apart here. Empty
	// or missing entries fall back to the catalog name; a nil slice is
	// valid (no aliases anywhere).
	Names []string
	// Local holds each table's single-table restriction (conjuncts of
	// WHERE referencing only that table, in table-local positions); nil
	// entries mean unrestricted. len(Local) == len(Tables).
	Local []expr.Expr
	// Preds are the equi-join predicates connecting the tables.
	Preds []JoinPred
	// Residual is the remainder of WHERE — conjuncts spanning tables
	// without being equi-joins — over flat positions; nil when none. It
	// is evaluated once every table is bound.
	Residual expr.Expr
	Binds    expr.Bindings
	// Projection lists flat positions to deliver; nil = all.
	Projection []int
	OrderBy    []int
	OrderDesc  bool
	Limit      int // deliver at most this many rows; 0 = all
	Goal       Goal
	Control    ControlNode
}

// nameOf returns table i's display name: its alias when declared, else
// the catalog name.
func (jq *JoinQuery) nameOf(i int) string {
	if i < len(jq.Names) && jq.Names[i] != "" {
		return jq.Names[i]
	}
	return jq.Tables[i].Name
}

// Offsets returns each table's starting position in the flat row.
func (jq *JoinQuery) Offsets() []int {
	out := make([]int, len(jq.Tables))
	off := 0
	for i, t := range jq.Tables {
		out[i] = off
		off += len(t.Columns)
	}
	return out
}

// Width is the flat row width: the total column count of all tables.
func (jq *JoinQuery) Width() int {
	w := 0
	for _, t := range jq.Tables {
		w += len(t.Columns)
	}
	return w
}

// validate checks structural consistency before any I/O is spent.
func (jq *JoinQuery) validate() error {
	if len(jq.Tables) < 2 {
		return fmt.Errorf("core: join query needs at least two tables, got %d", len(jq.Tables))
	}
	if len(jq.Local) != len(jq.Tables) {
		return fmt.Errorf("core: join query has %d local restrictions for %d tables", len(jq.Local), len(jq.Tables))
	}
	if len(jq.Names) != 0 && len(jq.Names) != len(jq.Tables) {
		return fmt.Errorf("core: join query has %d names for %d tables", len(jq.Names), len(jq.Tables))
	}
	for i, t := range jq.Tables {
		if t == nil {
			return fmt.Errorf("core: join query table %d is nil", i)
		}
		if err := expr.Validate(jq.Local[i]); err != nil {
			return err
		}
	}
	if err := expr.Validate(jq.Residual); err != nil {
		return err
	}
	for _, p := range jq.Preds {
		for _, tc := range [2][2]int{{p.LT, p.LC}, {p.RT, p.RC}} {
			t, c := tc[0], tc[1]
			if t < 0 || t >= len(jq.Tables) {
				return fmt.Errorf("core: join predicate table %d out of range", t)
			}
			if c < 0 || c >= len(jq.Tables[t].Columns) {
				return fmt.Errorf("core: join predicate column %d out of range for %s", c, jq.Tables[t].Name)
			}
		}
	}
	w := jq.Width()
	for _, c := range append(append([]int(nil), jq.Projection...), jq.OrderBy...) {
		if c < 0 || c >= w {
			return fmt.Errorf("core: flat column position %d out of range", c)
		}
	}
	return nil
}

// Join operator kinds: the four inner-stage execution strategies. The
// constants size the Metrics per-operator win counters.
const (
	joinOpNL = iota
	joinOpINL
	joinOpRIDX
	joinOpHJ
	joinOpCount
)

// Join operator names as they appear in JoinStageStats.Operator,
// Strategy strings, and metrics snapshots.
const (
	JoinOpNL   = "nl"   // nested loop over a once-scanned materialized inner
	JoinOpINL  = "inl"  // index nested loop: B-tree probe per outer row
	JoinOpRIDX = "ridx" // INL probing filtered through a restriction-index RID bitmap
	JoinOpHJ   = "hj"   // build/probe hash join: an in-memory table over one side, probed per row of the other
)

func joinOpName(k int) string {
	switch k {
	case joinOpNL:
		return JoinOpNL
	case joinOpINL:
		return JoinOpINL
	case joinOpRIDX:
		return JoinOpRIDX
	case joinOpHJ:
		return JoinOpHJ
	default:
		return "?"
	}
}

func joinOpIndex(name string) (int, bool) {
	switch name {
	case JoinOpNL:
		return joinOpNL, true
	case JoinOpINL:
		return joinOpINL, true
	case JoinOpRIDX:
		return joinOpRIDX, true
	case JoinOpHJ:
		return joinOpHJ, true
	default:
		return 0, false
	}
}
