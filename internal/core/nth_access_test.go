package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"rdbdyn/internal/expr"
)

// nthCancelCtx is a context whose Err() turns context.Canceled on its
// n-th call and stays cancelled. The governor consults Err before every
// page access (and the optimizer at its pre-flight checkpoints), so
// sweeping n fails each access a query makes in turn — ROADMAP item 4's
// "fail the n-th page access for every n" with no production hook.
type nthCancelCtx struct {
	context.Context
	done  chan struct{} // never closed; non-nil so a governor is built
	n     int64
	calls atomic.Int64
}

func newNthCancelCtx(n int) *nthCancelCtx {
	return &nthCancelCtx{Context: context.Background(), done: make(chan struct{}), n: int64(n)}
}

func (c *nthCancelCtx) Done() <-chan struct{} { return c.done }

func (c *nthCancelCtx) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// victimQuery is bgQuery as a DELETE runs it: RIDs out, nothing projected.
func victimQuery(f *fixture, t *testing.T) *Query {
	q := bgQuery(f, t, GoalTotalTime)
	q.Projection, q.RIDs = []int{}, true
	return q
}

// TestNthAccessCancellationSweep cancels at the n-th governor checkpoint
// for every n a small query makes, across the scan shapes — among them
// a RID-delivering run, the victim retrieval of a DELETE, and the two
// that stream at width 2 — and the join pipeline's shapes, at widths
// {0, 2}; at width 2 a single-table consumer pauses after its first row,
// so the n-th checkpoint finds a streamed scan's workers with the
// consumer between two Next calls, and a join's table accesses stream,
// so its n-th checkpoint may fall inside a morsel. Whatever access fails
// — a seek, a leaf hop, a spill write, a fetch, a probe — the error must
// surface from Next with every pin released, no goroutine left behind,
// every charge attributed (in-flight morsels included), the cancellation
// counted at most once, and no decision taken on the strength of the
// failed access: a seek that errored is not
// "index skipped", so no run may report a Tscan recommendation or a
// strategy switch (the clean runs of these shapes never do). A join
// counts one query and one join however it ends, and its table accesses
// count nothing of their own.
func TestNthAccessCancellationSweep(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY", "ID")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	jf := newJoinFixture(t, 50, 300, 10, 0, false)
	single := func(q *Query) func(*Optimizer, *ExecCtx) Rows {
		return func(o *Optimizer, ec *ExecCtx) Rows { return o.RunExec(ec, q) }
	}
	join := func(jq func() *JoinQuery, plan *JoinPlan) func(*Optimizer, *ExecCtx) Rows {
		return func(o *Optimizer, ec *ExecCtx) Rows {
			if plan != nil {
				return runJoinOn(o, ec, jq(), plan)
			}
			return o.RunJoin(ec, jq(), nil)
		}
	}
	custBelow := func(id int64) expr.Expr { return expr.NewCmp(expr.LT, expr.Col(0, "ID"), expr.Lit(expr.Int(id))) }
	seg0 := expr.NewCmp(expr.EQ, expr.Col(1, "SEG"), expr.Lit(expr.Int(0)))
	shapes := []struct {
		name string
		run  func(*Optimizer, *ExecCtx) Rows
		race bool
		join bool
	}{
		{"race", single(raceQuery(f, t)), true, false},
		{"background-only", single(bgQuery(f, t, GoalTotalTime)), false, false},
		{"fast-first", single(bgQuery(f, t, GoalFastFirst)), false, false},
		{"sorted", single(&Query{
			Table: f.tab,
			Restriction: expr.NewAnd(
				expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
				expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(3))),
			),
			OrderBy: []int{age},
			Goal:    GoalFastFirst,
		}), false, false},
		{"union", single(&Query{
			Table: f.tab,
			Restriction: expr.NewOr(
				expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(5))),
				expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(7))),
			),
		}), false, false},
		{"delete-victims", single(victimQuery(f, t)), false, false},
		// The two shapes that stream at width 2: a Tscan and the final
		// fetch of a clustered list, whose workers outlive a step.
		{"tscan", single(&Query{
			Table:       f.tab,
			Restriction: expr.NewCmp(expr.GE, expr.Col(f.col(t, "SALARY"), "SALARY"), expr.Lit(expr.Float(0))),
		}), false, false},
		{"final-fetch", func(o *Optimizer, ec *ExecCtx) Rows {
			return o.RunPlan(ec, &Query{
				Table:       f.tab,
				Restriction: expr.NewCmp(expr.LT, expr.Col(f.col(t, "ID"), "ID"), expr.Lit(expr.Int(2000))),
			}, &Plan{Tactic: "background-only", Indexes: []string{"IX_ID"}})
		}, false, false},
		// An exact driver streaming into inl probes.
		{"join-inl-streaming", join(func() *JoinQuery { return jf.custOrdQuery(custBelow(30)) }, nil), false, true},
		// 50 customers against 300 orders: hj builds on the outer rows.
		{"join-hj-builds-outer", join(func() *JoinQuery { return jf.custOrdQuery(nil) }, &JoinPlan{Stages: []JoinStagePlan{
			{Table: 0, Operator: "tscan", EstRows: 50}, {Table: 1, Operator: JoinOpHJ}}}), false, true},
		// The other way round: hj builds on its own table.
		{"join-hj-builds-inner", join(func() *JoinQuery { return jf.custOrdQuery(nil) }, &JoinPlan{Stages: []JoinStagePlan{
			{Table: 1, Operator: "tscan", EstRows: 300}, {Table: 0, Operator: JoinOpHJ}}}), false, true},
		// An inexact driver and a join output: two breakers.
		{"join-3-tables-breaker", join(func() *JoinQuery { return jf.starQuery(seg0, nil) }, nil), false, true},
		{"join-limit", join(func() *JoinQuery {
			jq := jf.custOrdQuery(custBelow(30))
			jq.Limit = 5
			return jq
		}, nil), false, true},
	}
	for _, sh := range shapes {
		for _, width := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/w%d", sh.name, width), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Parallelism = width
				cfg.DisableCompetition = true
				cfg.RaceFactor = -1
				if sh.race {
					cfg.RaceFactor = 1000
				}
				failed, clean := 0, 0
				for n := 1; n <= 150 || (sh.join && clean == 0); n++ {
					baseline := runtime.NumGoroutine()
					o := NewOptimizer(cfg)
					ctx := newNthCancelCtx(n)
					ec := NewExecCtx(ctx, 0)
					rows := sh.run(o, ec)
					_, ok, err := rows.Next()
					if ok && width >= 2 && !sh.join {
						// A streamed scan's workers run on while the
						// consumer sits between two Next calls: let them
						// reach the n-th checkpoint, or the window. (A
						// join sweeps hundreds of n to its first clean
						// run; its accesses' workers meet the checkpoint
						// while the consumer drains.)
						quiesce(ctx.calls.Load)
					}
					if ok {
						_, err = drainToErr(rows)
					}
					st := rows.Stats()
					if cerr := rows.Close(); cerr != nil {
						t.Fatalf("n=%d: Close: %v", n, cerr)
					}
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("n=%d: err = %v, want nil or context.Canceled", n, err)
					}
					if p := f.pool.PinnedPages() + jf.pool.PinnedPages(); p != 0 {
						t.Fatalf("n=%d: %d buffer-pool pins leaked; trace: %v", n, p, st.Trace())
					}
					waitGoroutines(t, baseline)
					if spent := ec.IOSpent(); st.IO.IOCost()+st.EstimateIO != spent {
						t.Fatalf("n=%d: attributed %d + estimate %d, charged %d; trace: %v", n, st.IO.IOCost(), st.EstimateIO, spent, st.Trace())
					}
					snap := o.Metrics().Snapshot()
					want := int64(0)
					if err != nil {
						want = 1
						failed++
					} else {
						clean++
					}
					if snap.QueriesCancelled != want {
						t.Fatalf("n=%d: err=%v but QueriesCancelled=%d", n, err, snap.QueriesCancelled)
					}
					if sh.join {
						// A join cancelled while still planning never started.
						started := int64(0)
						if st.Tactic == "join" {
							started = 1
						}
						if snap.Queries != 1 || snap.JoinQueries != started || len(snap.TacticWins) != 0 || (err == nil && started != 1) {
							t.Fatalf("n=%d: err=%v, queries=%d join_queries=%d (want %d) tactic_wins=%v",
								n, err, snap.Queries, snap.JoinQueries, started, snap.TacticWins)
						}
						if err == nil && width >= 2 && !accessStreamed(st) {
							t.Fatalf("no table access of the join streamed at width %d; trace: %v", width, st.Trace())
						}
					}
					if streams := sh.name == "tscan" || sh.name == "final-fetch"; streams && err == nil && width >= 2 &&
						!slices.ContainsFunc(st.Events, func(ev TraceEvent) bool { return strings.Contains(ev.Detail, "streamed: 2 workers") }) {
						t.Fatalf("n=%d: the scan did not stream at width %d; trace: %v", n, width, st.Trace())
					}
					for _, ev := range st.Events {
						if ev.Kind == EvStrategySwitch || strings.Contains(ev.Detail, "recommending Tscan") {
							t.Fatalf("n=%d: decision taken on a failed access: %s; trace: %v", n, ev.String(), st.Trace())
						}
					}
				}
				if failed == 0 {
					t.Fatal("degenerate sweep: no n cancelled the query")
				}
			})
		}
	}
}

// accessStreamed reports whether a table access of the run — a join's
// driver, hj side or nl inner — streamed its Tscan or Fin over morsels.
func accessStreamed(st RetrievalStats) bool {
	return slices.ContainsFunc(st.Events, func(ev TraceEvent) bool {
		return ev.Kind == EvScanComplete && strings.Contains(ev.Detail, "streamed:")
	})
}

// TestJoinClosedAfterKRows closes a LIMIT join after k rows for every k,
// at widths {0, 2} (at 2 a table access of the join streams, so Close
// unwinds morsels inside it): whatever the pipeline was doing, Close
// releases every pin, leaves no goroutine behind, and the run counts as
// one query and one join — once, also when Close is called again — and
// as no cancellation.
func TestJoinClosedAfterKRows(t *testing.T) {
	jf := newJoinFixture(t, 100, 600, 20, 0, false)
	const limit = 40
	for _, width := range []int{0, 2} {
		for k := 0; k <= limit+1; k++ {
			baseline := runtime.NumGoroutine()
			o := NewOptimizer(Config{Parallelism: width})
			jq := jf.custOrdQuery(expr.NewCmp(expr.LT, expr.Col(0, "ID"), expr.Lit(expr.Int(30))))
			jq.Limit = limit
			rows := o.RunJoin(NewExecCtx(context.Background(), 1<<40), jq, nil)
			for i := 0; i < k; i++ {
				if _, ok, err := rows.Next(); err != nil || ok != (i < limit) {
					t.Fatalf("w%d k=%d: row %d: ok=%v err=%v", width, k, i, ok, err)
				}
			}
			rows.Close()
			rows.Close()
			if p := jf.pool.PinnedPages(); p != 0 {
				t.Fatalf("w%d k=%d: %d pins leaked", width, k, p)
			}
			waitGoroutines(t, baseline)
			snap := o.Metrics().Snapshot()
			cancelled := snap.QueriesCancelled + snap.QueriesDeadlineExceeded + snap.QueriesBudgetExceeded
			if snap.Queries != 1 || snap.JoinQueries != 1 || cancelled != 0 || len(snap.TacticWins) != 0 {
				t.Fatalf("w%d k=%d: metrics %+v", width, k, snap)
			}
			st := rows.Stats()
			if st.RowsDelivered != min(k, limit) {
				t.Fatalf("w%d k=%d: RowsDelivered = %d", width, k, st.RowsDelivered)
			}
			if k > 0 && width >= 2 && !accessStreamed(st) {
				t.Fatalf("w%d k=%d: no table access of the join streamed; trace: %v", width, k, st.Trace())
			}
		}
	}
}
