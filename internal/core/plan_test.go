package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// planRows sizes the pinned-plan fixture: big enough that the dynamic
// optimizer settles on a different tactic per shape, small enough to
// rebuild per shape (the dropped-index variation mutates the table).
const planRows = 20000

var planPad = strings.Repeat("x", 40)

// planFixture loads FAM(ID, AGE, CITY, PAD) deterministically — column
// values are arithmetic in the row number — with the given indexes
// ("AGE" or "AGE+ID"; named like "AGE_ID_IX").
func planFixture(t testing.TB, indexes ...string) *fixture {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(4096), 0)
	cat := catalog.New(pool)
	tab, err := cat.CreateTable("FAM", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "AGE", Type: expr.TypeInt},
		{Name: "CITY", Type: expr.TypeString},
		{Name: "PAD", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{cat: cat, tab: tab, pool: pool}
	for i := 0; i < planRows; i++ {
		row := expr.Row{
			expr.Int(int64(i)),
			expr.Int(int64((i * 7919) % 10000)),
			expr.Str(fmt.Sprintf("C%03d", (i*31)%97)),
			expr.Str(planPad),
		}
		if _, err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
		f.rows = append(f.rows, row)
	}
	for _, ix := range indexes {
		cols := strings.Split(ix, "+")
		if _, err := tab.CreateIndex(strings.Join(cols, "_")+"_IX", cols...); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestRunPlan is the one suite for the one pinned-plan runner. For each
// replayable tactic it captures a plan from a clean dynamic run
// (CapturePlan, the plan cache's route) and builds the same shape as a
// literal (tactic + index names, the static planner's route), then
// replays both over variations of the query: they must agree on rows,
// order, Tactic, Strategy and IOStats, match an in-memory oracle, and
// leave no page pinned.
func TestRunPlan(t *testing.T) {
	const (
		id = iota
		age
		city
		pad
	)
	ageGE := func(v int64) expr.Expr { return expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(v))) }
	cityEQ := expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Str("C042")))

	shapes := []struct {
		tactic  string
		indexes []string // fixture indexes
		plan    []string // index names the plan replays, in order
		q       Query
		// delivers: the plan hands rows out in AGE order by itself.
		delivers bool
	}{
		{tactic: "tscan", indexes: []string{"AGE", "CITY"},
			q: Query{Restriction: expr.NewCmp(expr.EQ, expr.Col(pad, "PAD"), expr.Lit(expr.Str(planPad)))}},
		{tactic: "sscan", indexes: []string{"AGE+ID"}, plan: []string{"AGE_ID_IX"}, delivers: true,
			q: Query{Restriction: ageGE(9900), Projection: []int{age, id}}},
		{tactic: "fscan", indexes: []string{"AGE"}, plan: []string{"AGE_IX"}, delivers: true,
			q: Query{Restriction: ageGE(9950), Projection: []int{id, age}, OrderBy: []int{age}}},
		{tactic: "background-only", indexes: []string{"AGE", "CITY"}, plan: []string{"CITY_IX", "AGE_IX"},
			q: Query{Restriction: expr.NewAnd(ageGE(9000), cityEQ)}},
		{tactic: "fast-first", indexes: []string{"AGE", "CITY"}, plan: []string{"CITY_IX"},
			q: Query{Restriction: cityEQ, Limit: 5, Control: ControlLimit}},
		{tactic: "sorted", indexes: []string{"AGE", "CITY"}, plan: []string{"AGE_IX", "CITY_IX"}, delivers: true,
			q: Query{Restriction: expr.NewAnd(ageGE(9930), cityEQ), OrderBy: []int{age}}},
	}
	variations := []struct {
		name   string
		mutate func(q *Query)
	}{
		{"base", func(q *Query) {}},
		{"asc", func(q *Query) { q.OrderBy, q.OrderDesc = []int{age}, false }},
		{"desc", func(q *Query) { q.OrderBy, q.OrderDesc = []int{age}, true }},
		{"order not delivered", func(q *Query) { q.OrderBy, q.OrderDesc = []int{id}, false }},
		{"empty range", func(q *Query) {
			q.Restriction = expr.NewAnd(q.Restriction, ageGE(5),
				expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(5))))
		}},
		{"limit", func(q *Query) { q.Limit = 7 }},
	}

	for _, sh := range shapes {
		t.Run(sh.tactic, func(t *testing.T) {
			f := planFixture(t, sh.indexes...)
			o := NewOptimizer(Config{RaceFactor: -1})
			mk := func(mutate func(*Query)) *Query {
				q := sh.q
				q.Table = f.tab
				mutate(&q)
				return &q
			}
			// cold drains the retrieval run starts, traced, off a pool the
			// caller evicted.
			cold := func(run func(ec *ExecCtx) Rows) ([]expr.Row, RetrievalStats, []TraceEvent) {
				t.Helper()
				ec, log := tracedCtx()
				rows := run(ec)
				got := drain(t, rows)
				if n := f.pool.PinnedPages(); n != 0 {
					t.Fatalf("%d pages left pinned", n)
				}
				return got, rows.Stats(), log.Take()
			}
			// Capture from the second dynamic run: the first one samples
			// the cluster ratio, whose unattributed reads warm the pool.
			var dynRows []expr.Row
			var dynSt RetrievalStats
			var dynEvs []TraceEvent
			for i := 0; i < 2; i++ {
				f.pool.EvictAll()
				dynRows, dynSt, dynEvs = cold(func(ec *ExecCtx) Rows { return o.RunExec(ec, mk(func(*Query) {})) })
			}
			if dynSt.Tactic != sh.tactic {
				t.Fatalf("dynamic tactic = %s, shape expects %s", dynSt.Tactic, sh.tactic)
			}
			captured, ok := CapturePlan(&dynSt)
			if !ok {
				t.Fatalf("clean %s run not capturable; trace: %v", sh.tactic, dynEvs)
			}
			built := &Plan{Tactic: sh.tactic, Indexes: sh.plan}
			if captured.String() != built.String() {
				t.Fatalf("captured %s, built %s", captured, built)
			}

			for _, v := range variations {
				q := mk(v.mutate)
				f.pool.EvictAll()
				gotC, stC, evsC := cold(func(ec *ExecCtx) Rows { return o.RunPlan(ec, q, captured) })
				f.pool.EvictAll()
				gotB, stB, _ := cold(func(ec *ExecCtx) Rows { return o.RunPlan(ec, q, built) })
				label := sh.tactic + "/" + v.name

				// The two routes to a plan are one plan.
				if len(gotC) != len(gotB) {
					t.Fatalf("%s: captured plan %d rows, built plan %d", label, len(gotC), len(gotB))
				}
				for i := range gotC {
					if rowKey(gotC[i]) != rowKey(gotB[i]) {
						t.Fatalf("%s: row %d differs: %s vs %s", label, i, rowKey(gotC[i]), rowKey(gotB[i]))
					}
				}
				if stC.Tactic != stB.Tactic || stC.Strategy != stB.Strategy || stC.IO != stB.IO {
					t.Fatalf("%s: captured %s %q %+v, built %s %q %+v", label,
						stC.Tactic, stC.Strategy, stC.IO, stB.Tactic, stB.Strategy, stB.IO)
				}

				// And the plan answers the query.
				if v.name == "empty range" {
					if len(gotC) != 0 || stC.IO.IOCost() != 0 || stC.Tactic != "empty-range" || !hasEvent(evsC, EvEmptyRange, "") {
						t.Fatalf("%s: %d rows, %d I/O, tactic %s", label, len(gotC), stC.IO.IOCost(), stC.Tactic)
					}
					continue
				}
				want := f.naive(t, q)
				ordered := len(q.OrderBy) > 0
				if ordered {
					key := q.OrderBy[0]
					sort.SliceStable(want, func(i, j int) bool {
						if q.OrderDesc {
							return want[i][keyPos(q, key)].I > want[j][keyPos(q, key)].I
						}
						return want[i][keyPos(q, key)].I < want[j][keyPos(q, key)].I
					})
				}
				if q.Limit > 0 && len(want) > q.Limit {
					if !ordered {
						// Any Limit matching rows are a right answer.
						if len(gotC) != q.Limit {
							t.Fatalf("%s: %d rows under LIMIT %d", label, len(gotC), q.Limit)
						}
						in := map[string]bool{}
						for _, r := range want {
							in[rowKey(r)] = true
						}
						for _, r := range gotC {
							if !in[rowKey(r)] {
								t.Fatalf("%s: row %s is not in the result", label, rowKey(r))
							}
						}
						want = nil
					} else {
						want = want[:q.Limit]
					}
				}
				if want != nil {
					if ordered {
						if len(gotC) != len(want) {
							t.Fatalf("%s: %d rows, want %d", label, len(gotC), len(want))
						}
						for i := range want {
							k := keyPos(q, q.OrderBy[0])
							if gotC[i][k].I != want[i][k].I {
								t.Fatalf("%s: row %d sort key %d, want %d", label, i, gotC[i][k].I, want[i][k].I)
							}
						}
					}
					if !ordered || q.Limit == 0 {
						sameMultiset(t, gotC, want, label)
					}
				}
				sorts := ordered && !(sh.delivers && q.OrderBy[0] == age)
				if strings.HasPrefix(stC.Tactic, "sort(") != sorts {
					t.Fatalf("%s: tactic %s, SORT node expected: %v", label, stC.Tactic, sorts)
				}
				if !sorts && stC.Tactic != sh.tactic {
					t.Fatalf("%s: tactic %s", label, stC.Tactic)
				}
				if chosen := firstEvent(evsC, EvTacticChosen, ""); chosen == nil || chosen.Tactic != sh.tactic {
					t.Fatalf("%s: no tactic-chosen event for %s; trace: %v", label, sh.tactic, evsC)
				}

				// The capture contract: the replay does exactly the
				// productive work of the run it was captured from (page
				// for page; the dynamic run's estimation descents turned
				// some of its reads into hits), and no estimation.
				if v.name == "base" {
					touched := func(io storage.IOStats) int64 { return io.Reads + io.Hits }
					if touched(stC.IO) != touched(dynSt.IO) || stC.IO.Writes != dynSt.IO.Writes ||
						stC.Strategy != dynSt.Strategy || stC.EstimateIO != 0 {
						t.Fatalf("%s: replay %q %+v (estimate I/O %d), dynamic %q %+v", label,
							stC.Strategy, stC.IO, stC.EstimateIO, dynSt.Strategy, dynSt.IO)
					}
					for i := range dynRows {
						if rowKey(gotC[i]) != rowKey(dynRows[i]) {
							t.Fatalf("%s: replay row %d differs from the dynamic run", label, i)
						}
					}
					// The replay names the same arrangement as the run.
					rc, dc := firstEvent(evsC, EvTacticChosen, ""), firstEvent(dynEvs, EvTacticChosen, "")
					if rc.Scan != dc.Scan || !slices.Equal(rc.Indexes, dc.Indexes) {
						t.Fatalf("%s: replay chose %s %v, dynamic run %s %v", label, rc.Scan, rc.Indexes, dc.Scan, dc.Indexes)
					}
				}
			}

			// Dropped index: the plan names it, the replay must refuse.
			if len(sh.plan) == 0 {
				return
			}
			if err := f.tab.DropIndex(sh.plan[0]); err != nil {
				t.Fatal(err)
			}
			for _, p := range []*Plan{captured, built} {
				rows := o.RunPlan(nil, mk(func(*Query) {}), p)
				if _, _, err := rows.Next(); !errors.Is(err, ErrPlanStale) {
					t.Fatalf("replay over dropped %s: err = %v, want ErrPlanStale", sh.plan[0], err)
				}
				rows.Close()
			}
		})
	}

	// Malformed requests surface as errors through the Rows, from the
	// same validation the dynamic runner applies — never as a panic.
	t.Run("errors", func(t *testing.T) {
		f := planFixture(t, "AGE")
		o := NewOptimizer(Config{})
		q := &Query{Table: f.tab}
		for _, tc := range []struct {
			name string
			q    *Query
			p    *Plan
			want string
		}{
			{"projection out of range", &Query{Table: f.tab, Projection: []int{99}}, &Plan{Tactic: "tscan"}, "column position 99 out of range"},
			{"order column out of range", &Query{Table: f.tab, OrderBy: []int{-1}}, &Plan{Tactic: "tscan"}, "column position -1 out of range"},
			{"no table", &Query{}, &Plan{Tactic: "tscan"}, "without table"},
			{"nil plan", q, nil, "nil plan"},
			{"sscan without index", q, &Plan{Tactic: "sscan"}, "needs 1 indexes, has 0"},
			{"sorted without filter index", q, &Plan{Tactic: "sorted", Indexes: []string{"AGE_IX"}}, "needs 2 indexes, has 1"},
			{"no pinned form", q, &Plan{Tactic: "index-only", Indexes: []string{"AGE_IX"}}, "no pinned form"},
		} {
			_, _, err := o.RunPlan(nil, tc.q, tc.p).Next()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			}
			// The dynamic runner rejects the same queries the same way.
			if tc.p != nil && tc.p.Tactic == "tscan" {
				_, _, derr := o.RunExec(nil, tc.q).Next()
				if derr == nil || derr.Error() != err.Error() {
					t.Errorf("%s: Run says %v, RunPlan says %v", tc.name, derr, err)
				}
			}
		}
	})
}

// keyPos maps a table column to its position in q's delivered rows.
func keyPos(q *Query, col int) int {
	for i, c := range q.Projection {
		if c == col {
			return i
		}
	}
	return col
}
