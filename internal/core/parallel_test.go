package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// equivRun captures everything the deterministic-equivalence suite
// compares between a sequential and a parallel execution of one query.
type equivRun struct {
	rows     []string
	tactic   string
	strategy string
	io       storage.IOStats
	estimate int64
	fgRows   int
	finalLen int
	snap     MetricsSnapshot
	// widthEvents counts the run's parallel-width-chosen trace events
	// (adaptive runs only; always 0 under a static width).
	widthEvents int
}

// runEquiv executes q on a fresh optimizer (own metrics) at the given
// parallelism — statically, or through the adaptive width policy —
// against a cold pool, with racing off (race outcomes are
// scheduling-dependent by design) and competition off (abandonment
// timing is step-cadence shaped). Determinism everywhere else is the
// claim under test. Every width decision must name Tscan or Fin.
func runEquiv(t *testing.T, f *fixture, q *Query, parallelism int, adaptive bool) equivRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	cfg.AdaptiveParallelism = adaptive
	cfg.RaceFactor = -1
	cfg.DisableCompetition = true
	o := NewOptimizer(cfg)
	f.pool.EvictAll()
	rows := o.Run(q)
	got := drain(t, rows)
	if n := f.pool.PinnedPages(); n != 0 {
		t.Fatalf("parallelism=%d leaked %d pins", parallelism, n)
	}
	st := rows.Stats()
	onlyMorselWidths(t, "runEquiv", st)
	keys := make([]string, len(got))
	for i, r := range got {
		keys[i] = rowKey(r)
	}
	widths := 0
	for _, ev := range st.Events {
		if ev.Kind == EvParallelWidthChosen {
			widths++
		}
	}
	return equivRun{
		rows:        keys,
		tactic:      st.Tactic,
		strategy:    st.Strategy,
		io:          st.IO,
		estimate:    st.EstimateIO,
		fgRows:      st.FgRows,
		finalLen:    st.FinalListLen,
		snap:        o.Metrics().Snapshot(),
		widthEvents: widths,
	}
}

// onlyMorselWidths fails t if a width decision names a scan other than
// the two that partition, Tscan and Fin.
func onlyMorselWidths(t *testing.T, label string, st RetrievalStats) {
	t.Helper()
	for _, ev := range st.Events {
		if ev.Kind == EvParallelWidthChosen && ev.Scan != "Tscan" && ev.Scan != "Fin" {
			t.Fatalf("%s: a width decided for %s; only Tscan and Fin partition: %s", label, ev.Scan, ev.String())
		}
	}
}

// TestParallelEquivalenceAllTactics is the deterministic-equivalence
// suite: for every tactic shape, a run at Parallelism in {2, 4, NumCPU}
// must deliver the identical rows in the identical order, charge the
// identical attributed I/O (reads, writes, and hits separately — not
// just the cost sum), and move the cumulative metrics identically to
// the paper-faithful sequential run. Parallelism=0 is the baseline, so
// this is also the proof that the knob's default changes nothing.
func TestParallelEquivalenceAllTactics(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	age, city, salary := f.col(t, "AGE"), f.col(t, "CITY"), f.col(t, "SALARY")

	queries := []struct {
		name string
		q    *Query
	}{
		{"tscan", &Query{
			Table:       f.tab,
			Restriction: expr.NewCmp(expr.GE, expr.Col(salary, "SALARY"), expr.Lit(expr.Float(5000))),
		}},
		{"background-only", bgQuery(f, t, GoalTotalTime)},
		{"fast-first", bgQuery(f, t, GoalFastFirst)},
		{"index-only", &Query{
			Table:       f.tab,
			Restriction: expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(30))),
			Projection:  []int{age},
		}},
		{"sorted", &Query{
			Table:       f.tab,
			Restriction: expr.NewCmp(expr.LT, expr.Col(city, "CITY"), expr.Lit(expr.Int(40))),
			OrderBy:     []int{salary},
		}},
		{"ordered-index", &Query{
			Table:       f.tab,
			Restriction: expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(25))),
			OrderBy:     []int{age},
		}},
		{"union", &Query{
			Table: f.tab,
			Restriction: expr.NewOr(
				expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(5))),
				expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(7))),
			),
		}},
	}
	widths := []int{2, 4, runtime.NumCPU()}

	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			base := runEquiv(t, f, tc.q, 0, false)
			if len(base.rows) == 0 {
				t.Fatalf("degenerate fixture: %s query delivered no rows", tc.name)
			}
			for _, w := range widths {
				par := runEquiv(t, f, tc.q, w, false)
				if par.tactic != base.tactic || par.strategy != base.strategy {
					t.Fatalf("w=%d: tactic/strategy %s/%s, sequential %s/%s",
						w, par.tactic, par.strategy, base.tactic, base.strategy)
				}
				if !reflect.DeepEqual(par.rows, base.rows) {
					t.Fatalf("w=%d: %d rows vs %d, or order diverged", w, len(par.rows), len(base.rows))
				}
				if par.io != base.io {
					t.Fatalf("w=%d: attributed I/O %+v, sequential %+v", w, par.io, base.io)
				}
				if par.estimate != base.estimate {
					t.Fatalf("w=%d: estimation I/O %d, sequential %d", w, par.estimate, base.estimate)
				}
				if par.fgRows != base.fgRows || par.finalLen != base.finalLen {
					t.Fatalf("w=%d: fg=%d final=%d, sequential fg=%d final=%d",
						w, par.fgRows, par.finalLen, base.fgRows, base.finalLen)
				}
				if !reflect.DeepEqual(par.snap, base.snap) {
					t.Fatalf("w=%d: metrics delta diverged:\n par %+v\n seq %+v", w, par.snap, base.snap)
				}
			}
		})
	}
}

// raceQuery builds a restriction whose two index estimates are both
// inexact ranges, so a positive RaceFactor always starts a race.
func raceQuery(f *fixture, t *testing.T) *Query {
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	return &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(20))),
			expr.NewCmp(expr.LT, expr.Col(city, "CITY"), expr.Lit(expr.Int(50))),
		),
		Goal: GoalTotalTime,
	}
}

// waitGoroutines fails the test if the process goroutine count does not
// return to the pre-run baseline: a worker or race leg outlived its
// scan. Race legs are barrier-synchronous inside one step; a streamed
// Tscan or Fin's workers outlive a step but are joined by the scan's
// release, so nothing should linger beyond Close.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, baseline %d: orphaned parallel workers", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParallelRaceAuditWinnerAdoption runs goroutine race legs to
// natural resolution (winner adoption + loser continuation) and audits
// the aftermath: correct rows, a race actually having started, zero
// leaked pins, zero orphaned goroutines. Run under -race in CI.
func TestParallelRaceAuditWinnerAdoption(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	q := raceQuery(f, t)
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	cfg.RaceFactor = 1000 // adjacent estimates always race

	baseline := runtime.NumGoroutine()
	o := NewOptimizer(cfg)
	rows := o.Run(q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "goroutine race")
	st := rows.Stats()
	if !hasEvent(st, EvRaceStarted, "") {
		t.Fatalf("no race started; trace: %v", st.Trace())
	}
	if n := f.pool.PinnedPages(); n != 0 {
		t.Fatalf("%d pins leaked after goroutine race", n)
	}
	waitGoroutines(t, baseline)
}

// TestParallelRaceAuditCancellation cancels the query the moment its
// race starts, so the goroutine legs are unwound by the governor
// checkpoint instead of finishing. Both legs must come back through the
// barrier, the cancellation must surface exactly once, and neither pins
// nor goroutines may leak.
func TestParallelRaceAuditCancellation(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY")
	q := raceQuery(f, t)
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	cfg.RaceFactor = 1000

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseline := runtime.NumGoroutine()
	ec := NewExecCtx(ctx, 0).WithTrace(&eventTrigger{kind: EvRaceStarted, fire: cancel})
	o := NewOptimizer(cfg)
	rows := o.RunExec(ec, q)
	if _, err := drainToErr(rows); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkCancelled(t, f, rows, o, false, false)
	waitGoroutines(t, baseline)
}

// TestParallelCancellationSweep is the cancellation/deadline/budget
// sweep over the partitioned parallel paths (satellite of the
// parallelism work): each mode must surface its error exactly once per
// query — counted by the cumulative metrics — with every worker unwound
// (through the barrier, or joined by release when the scan streams),
// every charge attributed, no pins held, and no goroutines orphaned.
func TestParallelCancellationSweep(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY", "ID")
	salary, id := f.col(t, "SALARY"), f.col(t, "ID")
	tscanQ := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(salary, "SALARY"), expr.Lit(expr.Float(0))),
	}
	finQ := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.LT, expr.Col(id, "ID"), expr.Lit(expr.Int(5000))),
	}
	// Budgets are sized to trip inside each query's partitioned scan:
	// the tscan charges hundreds of heap reads; after a sequential Jscan
	// over two indexes, the streamed final fetch spans I/Os 13..22 of
	// jscan-then-fin and 44..83 of partitioned-fin. The event is the one
	// whose sink cancels the query or sleeps past its deadline: the
	// partitioned scan that follows it hits the governor checkpoint
	// already tripped.
	queries := map[string]struct {
		q      *Query
		budget int64
		at     EventKind
	}{
		"partitioned-tscan": {tscanQ, 25, EvTacticChosen},
		"jscan-then-fin":    {bgQuery(f, t, GoalTotalTime), 16, EvFinalStage},
		"partitioned-fin":   {finQ, 60, EvFinalStage},
	}
	const workers = 4
	attributed := func(t *testing.T, ec *ExecCtx, rows Rows) {
		t.Helper()
		if st := rows.Stats(); st.IO.IOCost()+st.EstimateIO != ec.IOSpent() {
			t.Fatalf("attributed %d + estimate %d, the query's workers charged %d", st.IO.IOCost(), st.EstimateIO, ec.IOSpent())
		}
	}

	for qname, tc := range queries {
		q, budget := tc.q, tc.budget
		t.Run(qname+"/canceled", func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Parallelism = workers
			cfg.DisableCompetition = true
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			baseline := runtime.NumGoroutine()
			ec := NewExecCtx(ctx, 0).WithTrace(&eventTrigger{kind: tc.at, fire: cancel})
			o := NewOptimizer(cfg)
			f.pool.EvictAll()
			rows := o.RunExec(ec, q)
			if _, err := drainToErr(rows); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			checkCancelled(t, f, rows, o, false, false)
			waitGoroutines(t, baseline)
			attributed(t, ec, rows)
		})

		t.Run(qname+"/budget", func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Parallelism = workers
			cfg.DisableCompetition = true
			baseline := runtime.NumGoroutine()
			ec := NewExecCtx(context.Background(), budget)
			o := NewOptimizer(cfg)
			f.pool.EvictAll()
			rows := o.RunExec(ec, q)
			if _, err := drainToErr(rows); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			// Workers check the governor before each page access, so the
			// overshoot past the budget is bounded by the in-flight
			// accesses: strictly fewer than one per worker.
			if spent := ec.IOSpent(); spent < budget || spent >= budget+workers {
				t.Fatalf("spent %d simulated I/Os, want within [%d, %d)", spent, budget, budget+workers)
			}
			checkCancelled(t, f, rows, o, false, true)
			waitGoroutines(t, baseline)
			attributed(t, ec, rows)
		})

		t.Run(qname+"/deadline", func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Parallelism = workers
			cfg.DisableCompetition = true
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			defer cancel()
			baseline := runtime.NumGoroutine()
			// Sleeping past the deadline inside the trace sink guarantees
			// the expiry lands mid-retrieval without timing flakiness.
			ec := NewExecCtx(ctx, 0).WithTrace(&eventTrigger{
				kind: tc.at,
				fire: func() { time.Sleep(60 * time.Millisecond) },
			})
			o := NewOptimizer(cfg)
			f.pool.EvictAll()
			rows := o.RunExec(ec, q)
			if _, err := drainToErr(rows); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			checkCancelled(t, f, rows, o, true, false)
			waitGoroutines(t, baseline)
			attributed(t, ec, rows)
		})
	}
}

// TestParallelismKnobResolution pins the knob's contract: 0 and 1 stay
// sequential, negatives resolve to GOMAXPROCS, large values clamp, and
// WithDefaults leaves 0 alone (the fidelity guarantee EXPERIMENTS
// depends on).
func TestParallelismKnobResolution(t *testing.T) {
	cases := []struct {
		in   int
		want int
	}{
		{0, 1},
		{1, 1},
		{2, 2},
		{-1, runtime.GOMAXPROCS(0)},
		{maxParallelism + 50, maxParallelism},
	}
	for _, c := range cases {
		if got := (Config{Parallelism: c.in}).effectiveWorkers(); got != c.want {
			t.Fatalf("effectiveWorkers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := (Config{}).WithDefaults().Parallelism; got != 0 {
		t.Fatalf("WithDefaults set Parallelism = %d, want 0 (sequential default)", got)
	}
	if got := NewOptimizer(Config{Parallelism: 4}).Config().Parallelism; got != 4 {
		t.Fatalf("optimizer dropped Parallelism: %d", got)
	}
}
