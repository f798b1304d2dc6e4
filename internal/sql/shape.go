package sql

import (
	"fmt"
	"sort"
	"strings"
)

// ShapeKey renders the compiled statement's plan-relevant shape as a
// canonical string. Two statements with the same key ask the optimizer
// the same question: same table, same restriction structure (bind
// parameters identified by name, not by the values later bound), same
// projection, order, limit, and execution control. The engine's plan
// cache uses the key to recognize repeated shapes; bind VALUES are
// deliberately excluded, which is exactly why a cached plan can go
// stale and must earn promotion through repeated consistent wins.
//
// The rendering normalizes commutative structure — AND/OR operands are
// sorted by their rendered form — so `A AND B` and `B AND A` share an
// entry. It does not attempt deeper equivalences (De Morgan, range
// merging): a miss there costs one extra cache entry, never a wrong
// plan. It renders on every call; the engine calls it once per
// compiled statement.
func (c *Compiled) ShapeKey() string {
	st := c.Stmt
	var b strings.Builder
	if len(st.Tables) > 1 || len(st.Aliases) > 0 {
		// Each table renders with its alias ("T a") so FROM T a JOIN T b
		// keys differently from FROM T x JOIN T b only through the
		// predicate text, while aliased and unaliased spellings of the
		// same catalog tables stay distinct shapes.
		refs := make([]string, len(st.Tables))
		for i, name := range st.Tables {
			refs[i] = name
			if i < len(st.Aliases) && st.Aliases[i] != "" {
				refs[i] = name + " " + st.Aliases[i]
			}
		}
		b.WriteString(strings.Join(refs, ","))
	} else {
		b.WriteString(st.Table)
	}
	b.WriteByte('|')
	switch {
	case c.Exists:
		b.WriteString("exists")
	case c.CountStar:
		b.WriteString("count(*)")
	case c.Agg != nil:
		fmt.Fprintf(&b, "%s(%s)", c.Agg.Kind, c.Agg.Col)
	case st.Columns == nil:
		b.WriteByte('*')
	default:
		b.WriteString(strings.Join(st.Columns, ","))
	}
	b.WriteByte('|')
	b.WriteString(shapeNode(st.Where))
	b.WriteByte('|')
	b.WriteString(strings.Join(st.OrderBy, ","))
	if st.OrderDesc {
		b.WriteString(" desc")
	}
	b.WriteByte('|')
	fmt.Fprintf(&b, "limit=%d|opt=%d", st.Limit, st.Optimize)
	return b.String()
}

// shapeNode renders one WHERE node canonically.
func shapeNode(n Node) string {
	switch t := n.(type) {
	case nil:
		return ""
	case ColNode:
		return t.Name
	case LitNode:
		return t.V.String()
	case ParamNode:
		return ":" + t.Name
	case CmpNode:
		return fmt.Sprintf("(%s %s %s)", shapeNode(t.L), t.Op, shapeNode(t.R))
	case AndNode:
		return shapeKids("and", t.Kids)
	case OrNode:
		return shapeKids("or", t.Kids)
	case NotNode:
		return fmt.Sprintf("not(%s)", shapeNode(t.Kid))
	default:
		return fmt.Sprintf("?%T", n)
	}
}

func shapeKids(op string, kids []Node) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = shapeNode(k)
	}
	sort.Strings(parts)
	return op + "(" + strings.Join(parts, ";") + ")"
}
