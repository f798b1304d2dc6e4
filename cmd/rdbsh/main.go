// Command rdbsh is an interactive SQL shell over an in-memory database
// driven by the dynamic optimizer. It starts with the demo FAMILIES
// table loaded (100k rows, skewed CITY, indexes on AGE and CITY) so the
// paper's behaviors can be poked at directly.
//
//	$ rdbsh
//	rdb> SELECT COUNT(*) FROM FAMILIES WHERE AGE >= 9900
//	rdb> SELECT * FROM FAMILIES WHERE CITY = 0 LIMIT TO 5 ROWS
//	rdb> \stats        -- show the last statement's tactic, trace, and I/O
//	rdb> \set A1 9990  -- bind a host variable
//	rdb> SELECT * FROM FAMILIES WHERE AGE >= :A1 LIMIT 3
//	rdb> \timeout 50ms -- deadline for every following statement
//	rdb> \budget 2000  -- per-query simulated-I/O budget
//	rdb> \quit
//
// Ctrl-C cancels the in-flight query (reporting the rows delivered and
// I/O attributed so far) instead of killing the shell.
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"time"

	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/workload"
)

// interruptState routes SIGINT to the in-flight query's cancel
// function. When no query is running the signal is swallowed (the
// shell stays alive; \quit exits).
type interruptState struct {
	mu     sync.Mutex
	cancel context.CancelFunc
}

func (s *interruptState) set(c context.CancelFunc) {
	s.mu.Lock()
	s.cancel = c
	s.mu.Unlock()
}

func (s *interruptState) fire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel == nil {
		return false
	}
	s.cancel()
	return true
}

func main() {
	// Every retrieval's decisions land in trace, drained after each
	// statement; \stats shows the last one's.
	trace := &core.TraceLog{}
	cfg := core.DefaultConfig()
	cfg.Parallelism = 4
	cfg.AdaptiveParallelism = true
	cfg.Trace = trace
	db := engine.Open(engine.Options{
		PoolFrames:     1024,
		Optimizer:      cfg,
		EnableFeedback: true,
		PlanCache:      engine.PlanCacheConfig{Enable: true},
	})
	spec := workload.TableSpec{
		Name: "FAMILIES",
		Rows: 100000,
		Columns: []workload.ColumnSpec{
			{Name: "ID", Gen: &workload.Seq{}},
			{Name: "AGE", Gen: workload.Uniform{Lo: 0, Hi: 10000}},
			{Name: "CITY", Gen: &workload.Zipf{S: 1.3, V: 1, N: 1000}},
			{Name: "PAD", Gen: workload.Pad{Len: 40}},
		},
		Indexes: [][]string{{"AGE"}, {"CITY"}},
		Seed:    1,
	}
	fmt.Println("loading demo FAMILIES table (100k rows, indexes on AGE and CITY)...")
	if _, err := workload.Build(db.Catalog(), spec); err != nil {
		fmt.Fprintln(os.Stderr, "rdbsh:", err)
		os.Exit(1)
	}
	// A second table keyed to FAMILIES.ID so multi-table statements
	// (JOIN ... ON, comma syntax) can be poked at too.
	ordSpec := workload.TableSpec{
		Name: "ORDERS",
		Rows: 50000,
		Columns: []workload.ColumnSpec{
			{Name: "ID", Gen: &workload.Seq{}},
			{Name: "FAM", Gen: workload.Uniform{Lo: 0, Hi: 100000}},
			{Name: "QTY", Gen: workload.Uniform{Lo: 1, Hi: 10}},
		},
		Indexes: [][]string{{"FAM"}},
		Seed:    2,
	}
	fmt.Println("loading demo ORDERS table (50k rows, FAM -> FAMILIES.ID, index on FAM)...")
	if _, err := workload.Build(db.Catalog(), ordSpec); err != nil {
		fmt.Fprintln(os.Stderr, "rdbsh:", err)
		os.Exit(1)
	}
	fmt.Println(`ready. SQL statements end at newline; \help for commands. Ctrl-C cancels the running query.`)

	intr := &interruptState{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		for range sig {
			if !intr.fire() {
				fmt.Println(`
interrupt: no query in flight (\quit to exit)`)
			}
		}
	}()

	binds := engine.Binds{}
	var (
		lastStats *core.RetrievalStats
		lastTrace []core.TraceEvent
		timeout   time.Duration
		budget    int64
	)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("rdb> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			fmt.Println(`commands:
  \set NAME VALUE   bind a host variable (integer or 'string')
  \binds            show current bindings
  \timeout DUR      deadline for every following statement (e.g. 50ms; 0 = off)
  \budget N         per-query simulated-I/O budget (0 = off)
  \stats            show the last statement's tactic, strategy, I/O, trace
  \metrics          show cumulative optimizer metrics (tactic wins, switches, joins, estimate error)
  \cache            show the plan cache (frozen plans, win streaks, hit/miss counters)
  \feedback         show the learned estimation correction factors
  \quit             exit
EXPLAIN <select> describes the plan; EXPLAIN ANALYZE <select> executes it
and reports the typed competition events alongside. Ctrl-C cancels the
in-flight query and reports its partial progress.`)
		case line == `\binds`:
			for k, v := range binds {
				fmt.Printf("  :%s = %v\n", k, v)
			}
		case line == `\stats`:
			if lastStats == nil {
				fmt.Println("no statement has run yet")
				continue
			}
			printStats(*lastStats, lastTrace)
		case line == `\metrics`:
			printMetrics(db.Metrics())
		case line == `\cache`:
			printCache(db.PlanCacheSnapshot())
		case line == `\feedback`:
			printFeedback(db.FeedbackSnapshot())
		case line == `\timeout` || strings.HasPrefix(line, `\timeout `):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\timeout`))
			switch {
			case arg == "":
				if timeout > 0 {
					fmt.Printf("timeout: %v\n", timeout)
				} else {
					fmt.Println("timeout: off")
				}
			case arg == "0" || arg == "off":
				timeout = 0
				fmt.Println("timeout off")
			default:
				d, err := time.ParseDuration(arg)
				if err != nil || d < 0 {
					fmt.Println(`usage: \timeout DURATION (e.g. 50ms, 2s; 0 = off)`)
					continue
				}
				timeout = d
				fmt.Printf("timeout set to %v\n", timeout)
			}
		case line == `\budget` || strings.HasPrefix(line, `\budget `):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\budget`))
			switch {
			case arg == "":
				if budget > 0 {
					fmt.Printf("I/O budget: %d\n", budget)
				} else {
					fmt.Println("I/O budget: off")
				}
			case arg == "0" || arg == "off":
				budget = 0
				fmt.Println("I/O budget off")
			default:
				n, err := strconv.ParseInt(arg, 10, 64)
				if err != nil || n < 0 {
					fmt.Println(`usage: \budget N (simulated page I/Os; 0 = off)`)
					continue
				}
				budget = n
				fmt.Printf("I/O budget set to %d simulated page I/Os\n", budget)
			}
		case strings.HasPrefix(line, `\set `):
			parts := strings.Fields(line)
			if len(parts) != 3 {
				fmt.Println(`usage: \set NAME VALUE`)
				continue
			}
			if v, err := strconv.ParseInt(parts[2], 10, 64); err == nil {
				binds[parts[1]] = v
			} else if f, err := strconv.ParseFloat(parts[2], 64); err == nil {
				binds[parts[1]] = f
			} else {
				binds[parts[1]] = strings.Trim(parts[2], "'")
			}
		case strings.HasPrefix(line, `\`):
			fmt.Println(`unknown command; \help for help`)
		default:
			up := strings.ToUpper(line)
			if strings.HasPrefix(up, "INSERT") || strings.HasPrefix(up, "DELETE") || strings.HasPrefix(up, "UPDATE") {
				n, err := db.Exec(line, binds)
				trace.Take()
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Printf("-- %d rows affected\n", n)
				continue
			}
			st, err := runSQL(db, line, binds, timeout, budget, intr)
			events := trace.Take()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			lastStats, lastTrace = st, events
		}
	}
}

// cancelCause reports whether err is one of the three cooperative
// unwind causes (interrupt, deadline, budget) and names it.
func cancelCause(err error) (string, bool) {
	switch {
	case errors.Is(err, core.ErrBudgetExceeded):
		return "I/O budget exhausted", true
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline exceeded", true
	case errors.Is(err, context.Canceled):
		return "interrupted", true
	default:
		return "", false
	}
}

func runSQL(db *engine.DB, src string, binds engine.Binds, timeout time.Duration, budget int64, intr *interruptState) (*core.RetrievalStats, error) {
	db.Pool().ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}
	if budget > 0 {
		ctx = core.WithIOBudget(ctx, budget)
	}
	intr.set(cancel)
	defer intr.set(nil)

	res, err := db.QueryContext(ctx, src, binds)
	if err != nil {
		if cause, ok := cancelCause(err); ok {
			return nil, fmt.Errorf("%s before any row was delivered", cause)
		}
		return nil, err
	}
	fmt.Println(strings.Join(res.Columns(), " | "))
	count := 0
	const maxShow = 25
	for {
		row, ok, err := res.Next()
		if err != nil {
			st := res.Stats()
			res.Close()
			if cause, ok := cancelCause(err); ok {
				fmt.Printf("-- %s: %d rows delivered before the query unwound, attributed I/O: %s\n",
					cause, count, st.IO)
				return &st, nil
			}
			return nil, err
		}
		if !ok {
			break
		}
		count++
		if count <= maxShow {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, " | "))
		}
	}
	if count > maxShow {
		fmt.Printf("... (%d rows total)\n", count)
	}
	if err := res.Close(); err != nil {
		return nil, err
	}
	st := res.Stats()
	fmt.Printf("-- %d rows, tactic=%s, pool I/O: %s\n", count, st.Tactic, db.Pool().Stats())
	return &st, nil
}

func printStats(st core.RetrievalStats, trace []core.TraceEvent) {
	fmt.Printf("tactic:    %s\n", st.Tactic)
	fmt.Printf("strategy:  %s\n", st.Strategy)
	fmt.Printf("attributed I/O: %s (estimation: %d)\n", st.IO, st.EstimateIO)
	fmt.Printf("rows delivered: %d (foreground: %d, final list: %d)\n",
		st.RowsDelivered, st.FgRows, st.FinalListLen)
	for i, sg := range st.JoinStages {
		line := fmt.Sprintf("stage %d %s: %s", i, sg.Table, sg.Operator)
		if sg.Index != "" {
			line += fmt.Sprintf("(%s)", sg.Index)
		}
		line += fmt.Sprintf("  est %.0f rows, actual %d, I/O %d", sg.EstRows, sg.ActualRows, sg.IO)
		if sg.Reoptimized {
			line += "  [re-optimized]"
		}
		fmt.Println(" ", line)
	}
	for _, ev := range trace {
		fmt.Println("  *", ev)
	}
}

func printMetrics(m core.MetricsSnapshot) {
	fmt.Printf("queries:           %d\n", m.Queries)
	fmt.Printf("empty ranges:      %d\n", m.EmptyRanges)
	fmt.Printf("scan abandonments: %d\n", m.ScanAbandonments)
	fmt.Printf("strategy switches: %d\n", m.StrategySwitches)
	fmt.Printf("races resolved:    %d\n", m.RacesResolved)
	fmt.Printf("borrow overflows:  %d\n", m.BorrowOverflows)
	fmt.Printf("cancelled:         %d\n", m.QueriesCancelled)
	fmt.Printf("deadline exceeded: %d\n", m.QueriesDeadlineExceeded)
	fmt.Printf("budget exceeded:   %d\n", m.QueriesBudgetExceeded)
	if m.JoinQueries > 0 {
		fmt.Printf("join queries:      %d (orders chosen: %d, re-optimizations: %d)\n",
			m.JoinQueries, m.JoinOrdersChosen, m.JoinReoptimizations)
		if m.JoinSortsAvoided > 0 {
			fmt.Printf("join sorts avoided: %d\n", m.JoinSortsAvoided)
		}
		if len(m.JoinOperatorWins) > 0 {
			fmt.Println("join operator wins:")
			for _, op := range []string{"nl", "inl", "ridx", "hj"} {
				if n := m.JoinOperatorWins[op]; n > 0 {
					fmt.Printf("  %-16s %d\n", op, n)
				}
			}
		}
	}
	if len(m.ParallelWidths) > 0 {
		fmt.Println("parallel widths chosen:")
		for _, bucket := range []string{"1", "2", "4", "8", "16", "32", "64"} {
			if n := m.ParallelWidths[bucket]; n > 0 {
				fmt.Printf("  %-8s %d\n", bucket, n)
			}
		}
		fmt.Printf("  seq downgrades:  %d\n", m.ParallelSeqDowngrades)
	}
	if len(m.TacticWins) > 0 {
		fmt.Println("tactic wins:")
		for _, tactic := range []string{"tscan", "sscan", "fscan", "background-only", "fast-first", "sorted", "index-only"} {
			if n := m.TacticWins[tactic]; n > 0 {
				fmt.Printf("  %-16s %d\n", tactic, n)
			}
		}
	}
	if len(m.EstimateErrorLog) > 0 {
		fmt.Println("estimate error (predicted/actual):")
		for _, bucket := range []string{"0-I/O", "<=1/8x", "1/4x", "1/2x", "~1x", "2x", "4x", ">=8x"} {
			if n := m.EstimateErrorLog[bucket]; n > 0 {
				fmt.Printf("  %-8s %d\n", bucket, n)
			}
		}
	}
}

func printCache(s engine.PlanCacheSnapshot) {
	if !s.Enabled {
		fmt.Println("plan cache disabled")
		return
	}
	fmt.Printf("entries: %d (frozen: %d)\n", s.Entries, s.Frozen)
	fmt.Printf("hits: %d  misses: %d  promotions: %d  demotions: %d  invalidations: %d\n",
		s.Hits, s.Misses, s.Promotions, s.Demotions, s.Invalidations)
	for _, e := range s.Plans {
		if e.Plan != "" {
			fmt.Printf("  frozen  %s\n          -> %s (baseline I/O %d)\n", e.Shape, e.Plan, e.BaselineIO)
		} else {
			fmt.Printf("  streak %d  %s\n", e.Streak, e.Shape)
		}
	}
}

func printFeedback(cs []core.Correction) {
	if cs == nil {
		fmt.Println("feedback disabled")
		return
	}
	if len(cs) == 0 {
		fmt.Println("no corrections learned yet")
		return
	}
	fmt.Println("correction factors (observed/estimated, EMA):")
	for _, c := range cs {
		target := c.Table
		if c.Index != "" {
			target += "." + c.Index
		}
		fmt.Printf("  %-28s card %.3fx (%d samples)\n", target, c.Card, c.CardSamples)
	}
}
