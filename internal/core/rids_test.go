package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// TestRIDDeliveringRunMatchesRows: a run with Query.RIDs set delivers,
// whatever tactic carries it and at either width, exactly the RIDs of
// the rows the same restriction delivers as rows — every delivery site
// hands the RID over.
func TestRIDDeliveringRunMatchesRows(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	id, age, city, name := f.col(t, "ID"), f.col(t, "AGE"), f.col(t, "CITY"), f.col(t, "NAME")
	lt := func(c int, n string, v int64) expr.Expr {
		return expr.NewCmp(expr.LT, expr.Col(c, n), expr.Lit(expr.Int(v)))
	}
	for _, sh := range []struct {
		name, scan string // scan: a stage the strategy must include
		q          Query
	}{
		{"unindexed", "Tscan", Query{Restriction: expr.NewCmp(expr.GE, expr.Col(name, "NAME"), expr.Lit(expr.Str("name-04")))}},
		{"self-sufficient", "Sscan", Query{Restriction: lt(age, "AGE", 3)}},
		{"two-indexes", "Jscan", *bgQuery(f, t, GoalTotalTime)},
		{"or", "Uscan", Query{Restriction: expr.NewOr(lt(age, "AGE", 2), lt(city, "CITY", 2))}},
		{"ordered", "Fscan", Query{Restriction: expr.NewAnd(lt(age, "AGE", 2), lt(id, "ID", 5000)), OrderBy: []int{age}, Goal: GoalFastFirst}},
		{"borrowed", "Fgr(borrow)", Query{Restriction: expr.NewAnd(lt(age, "AGE", 30), lt(id, "ID", 9000)), Goal: GoalFastFirst}},
	} {
		for _, width := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/w%d", sh.name, width), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Parallelism = width
				q := sh.q
				q.Table, q.Projection = f.tab, []int{id}
				var want []int64
				for _, row := range f.naive(t, &q) {
					want = append(want, row[0].I)
				}
				q.Projection, q.RIDs = []int{}, true
				rows := NewOptimizer(cfg).RunExec(nil, &q)
				var got []int64
				for _, row := range drain(t, rows) {
					if len(row) != 2 {
						t.Fatalf("delivered %v, want (page, slot)", row)
					}
					rid := storage.RID{Page: storage.PageID{File: f.tab.Heap.File(), No: storage.PageNo(row[0].I)}, Slot: uint16(row[1].I)}
					rec, err := f.tab.Fetch(rid)
					if err != nil {
						t.Fatalf("delivered %v: %v", rid, err)
					}
					got = append(got, rec[id].I)
				}
				if st := rows.Stats(); !strings.Contains(st.Strategy, sh.scan) {
					t.Fatalf("strategy %q, want one with %s", st.Strategy, sh.scan)
				}
				if len(want) == 0 {
					t.Fatal("degenerate shape: the restriction matches nothing")
				}
				slices.Sort(want)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("RIDs of %d rows, the restriction delivers %d", len(got), len(want))
				}
				if p := f.pool.PinnedPages(); p != 0 {
					t.Fatalf("%d pins left", p)
				}
			})
		}
	}
}
