package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
// for every n a small query makes, across the scan shapes — the last a
// RID-delivering run, the victim retrieval of a DELETE — and at widths
// {0, 2}. Whatever access fails — a seek, a leaf hop, a spill write, a
// fetch — the error must surface from Next with every pin released, no
// goroutine left behind, the cancellation counted at most once, and no
// decision taken on the strength of the failed access: a seek that
// errored is not "index skipped", so no run may report a Tscan
// recommendation or a strategy switch (the clean runs of these shapes
// never do).
func TestNthAccessCancellationSweep(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	shapes := []struct {
		name string
		q    *Query
		race bool
	}{
		{"race", raceQuery(f, t), true},
		{"background-only", bgQuery(f, t, GoalTotalTime), false},
		{"fast-first", bgQuery(f, t, GoalFastFirst), false},
		{"sorted", &Query{
			Table: f.tab,
			Restriction: expr.NewAnd(
				expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
				expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(3))),
			),
			OrderBy: []int{age},
			Goal:    GoalFastFirst,
		}, false},
		{"union", &Query{
			Table: f.tab,
			Restriction: expr.NewOr(
				expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(5))),
				expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(7))),
			),
		}, false},
		{"delete-victims", victimQuery(f, t), false},
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
				failed := 0
				for n := 1; n <= 150; n++ {
					baseline := runtime.NumGoroutine()
					o := NewOptimizer(cfg)
					rows := o.RunExec(NewExecCtx(newNthCancelCtx(n), 0), sh.q)
					_, err := drainToErr(rows)
					st := rows.Stats()
					if cerr := rows.Close(); cerr != nil {
						t.Fatalf("n=%d: Close: %v", n, cerr)
					}
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("n=%d: err = %v, want nil or context.Canceled", n, err)
					}
					if p := f.pool.PinnedPages(); p != 0 {
						t.Fatalf("n=%d: %d buffer-pool pins leaked; trace: %v", n, p, st.Trace())
					}
					waitGoroutines(t, baseline)
					snap := o.Metrics().Snapshot()
					want := int64(0)
					if err != nil {
						want = 1
						failed++
					}
					if snap.QueriesCancelled != want {
						t.Fatalf("n=%d: err=%v but QueriesCancelled=%d", n, err, snap.QueriesCancelled)
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
