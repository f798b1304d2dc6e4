package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"rdbdyn/internal/competition"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// tracedCtx returns a free execution context whose retrievals hand
// every event to the returned TraceLog.
func tracedCtx() (*ExecCtx, *TraceLog) {
	log := &TraceLog{}
	return (*ExecCtx)(nil).WithTrace(log), log
}

// hasEvent reports whether the event stream carries an event of the
// given kind; with index != "", the event must also mention that index.
func hasEvent(evs []TraceEvent, kind EventKind, index string) bool {
	return firstEvent(evs, kind, index) != nil
}

func firstEvent(evs []TraceEvent, kind EventKind, index string) *TraceEvent {
	for i, ev := range evs {
		if ev.Kind == kind && (index == "" || slices.Contains(ev.Indexes, index)) {
			return &evs[i]
		}
	}
	return nil
}

// checkStream asserts the structural invariants of one retrieval's
// event stream: consecutive Seq from 0 and the stats' QueryID on every
// event.
func checkStream(t *testing.T, st RetrievalStats, evs []TraceEvent) {
	t.Helper()
	if st.QueryID == 0 && len(evs) > 0 {
		t.Fatalf("retrieval with events but no QueryID")
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
		if ev.QueryID != st.QueryID {
			t.Fatalf("event %d has QueryID %d, stats say %d", i, ev.QueryID, st.QueryID)
		}
	}
}

// TestEventStreamPerTactic runs one query per arrangement and asserts
// the typed stream: a first tactic-chosen event naming the tactic, its
// scan, its indexes and its detail — the rows EXPLAIN shows — plus the
// structural invariants.
func TestEventStreamPerTactic(t *testing.T) {
	f := newFixture(t, 10000, "AGE", "CITY", "AGE+ID")
	age, city, id, salary := f.col(t, "AGE"), f.col(t, "CITY"), f.col(t, "ID"), f.col(t, "SALARY")
	cmp := func(op expr.CmpOp, col int, name string, v int64) expr.Expr {
		return expr.NewCmp(op, expr.Col(col, name), expr.Lit(expr.Int(v)))
	}
	ageCity := expr.NewAnd(cmp(expr.LT, age, "AGE", 20), cmp(expr.EQ, city, "CITY", 7))
	union := expr.NewOr(cmp(expr.EQ, city, "CITY", 7), cmp(expr.LT, age, "AGE", 2))
	disjoint := expr.NewOr(cmp(expr.EQ, city, "CITY", 7), cmp(expr.EQ, city, "CITY", 9))
	unsargable := expr.NewCmp(expr.LT, expr.Col(salary, "SALARY"), expr.Lit(expr.Float(500)))

	cases := []struct {
		name    string
		q       Query
		tactic  string
		scan    string
		indexes []string
		detail  string
	}{
		{"background-only", Query{Restriction: ageCity, Goal: GoalTotalTime},
			"background-only", "Jscan", []string{"IX_CITY", "IX_AGE", "IX_AGE+ID"}, "background-only over 3 indexes"},
		{"fast-first", Query{Restriction: ageCity, Goal: GoalFastFirst},
			"fast-first", "Jscan", []string{"IX_CITY", "IX_AGE", "IX_AGE+ID"}, "fast-first, foreground borrows from IX_CITY"},
		{"sorted", Query{Restriction: expr.NewAnd(cmp(expr.GE, age, "AGE", 10), cmp(expr.EQ, city, "CITY", 3)), OrderBy: []int{age}, Goal: GoalFastFirst},
			"sorted", "Fscan(IX_AGE)", []string{"IX_AGE", "IX_CITY", "IX_AGE+ID"}, "Fscan(IX_AGE) + filter Jscan(2 indexes)"},
		{"index-only", Query{Restriction: expr.NewAnd(cmp(expr.LT, age, "AGE", 30), cmp(expr.LT, id, "ID", 5000)), Projection: []int{age, id}, Goal: GoalTotalTime},
			"index-only", "Sscan(IX_AGE+ID)", []string{"IX_AGE+ID", "IX_AGE"}, "Sscan(IX_AGE+ID) races Jscan over 1 indexes"},
		{"tscan", Query{Restriction: unsargable},
			"tscan", "Tscan", nil, "no useful index"},
		{"sscan", Query{Restriction: cmp(expr.GE, age, "AGE", 95), Projection: []int{age}},
			"sscan", "Sscan(IX_AGE)", []string{"IX_AGE"}, "lone self-sufficient index"},
		{"sscan ordered", Query{Restriction: cmp(expr.GE, age, "AGE", 90), Projection: []int{age, id}, OrderBy: []int{age}},
			"sscan", "Sscan(IX_AGE+ID)", []string{"IX_AGE+ID"}, "self-sufficient order-needed index"},
		{"fscan", Query{Restriction: unsargable, OrderBy: []int{age}, Goal: GoalFastFirst},
			"fscan", "Fscan(IX_AGE)", []string{"IX_AGE"}, "ordered plain Fscan"},
		{"union background-only", Query{Restriction: union, Goal: GoalTotalTime},
			"background-only", "Uscan", []string{"IX_CITY", "IX_AGE"}, "background-only union over 2 disjunct legs"},
		{"union fast-first", Query{Restriction: disjoint, Goal: GoalFastFirst},
			"fast-first", "Uscan", []string{"IX_CITY", "IX_CITY"}, "fast-first over a 2-leg union"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.q
			q.Table = f.tab
			o := NewOptimizer(DefaultConfig())
			ec, log := tracedCtx()
			rows := o.RunExec(ec, &q)
			got := drain(t, rows)
			sameMultiset(t, got, f.naive(t, &q), tc.name)
			st, evs := rows.Stats(), log.Take()
			checkStream(t, st, evs)
			chosen := firstEvent(evs, EvTacticChosen, "")
			if chosen == nil {
				t.Fatalf("no tactic-chosen event; trace: %v", evs)
			}
			if chosen.Tactic != tc.tactic || chosen.Scan != tc.scan || !slices.Equal(chosen.Indexes, tc.indexes) || chosen.Detail != tc.detail {
				t.Fatalf("tactic-chosen = %q %q %q %q, want %q %q %q %q", chosen.Tactic, chosen.Scan, chosen.Indexes, chosen.Detail,
					tc.tactic, tc.scan, tc.indexes, tc.detail)
			}
			if chosen.Seq != 0 {
				t.Fatalf("tactic-chosen should be the first event, got Seq %d", chosen.Seq)
			}
			if snap := o.Metrics().Snapshot(); snap.TacticWins[tc.tactic] < 1 {
				t.Fatalf("metrics recorded no %s win: %+v", tc.tactic, snap)
			}
		})
	}
}

// TestEventStreamTscanRecommendation covers the strategy-switch path:
// Jscan over a huge range recommends Tscan and the retrieval switches.
func TestEventStreamTscanRecommendation(t *testing.T) {
	f := newFixture(t, 10000, "AGE")
	age := f.col(t, "AGE")
	q := &Query{
		Table:       f.tab,
		Restriction: expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(1))),
		Goal:        GoalTotalTime,
	}
	o := NewOptimizer(DefaultConfig())
	ec, log := tracedCtx()
	rows := o.RunExec(ec, q)
	got := drain(t, rows)
	sameMultiset(t, got, f.naive(t, q), "tscan-recommend")
	st, evs := rows.Stats(), log.Take()
	checkStream(t, st, evs)
	sw := firstEvent(evs, EvStrategySwitch, "")
	if sw == nil {
		t.Fatalf("expected a strategy-switch event; trace: %v", evs)
	}
	if sw.Scan != "Tscan" {
		t.Fatalf("strategy-switch targets %q, want Tscan", sw.Scan)
	}
	if snap := o.Metrics().Snapshot(); snap.StrategySwitches < 1 {
		t.Fatalf("metrics missed the strategy switch: %+v", snap)
	}
}

// TestEventStreamEmptyRange covers the expression-level empty range: a
// contradictory conjunction cancels every stage before estimation.
func TestEventStreamEmptyRange(t *testing.T) {
	f := newFixture(t, 2000, "AGE")
	age := f.col(t, "AGE")
	q := &Query{
		Table: f.tab,
		Restriction: expr.NewAnd(
			expr.NewCmp(expr.GT, expr.Col(age, "AGE"), expr.Lit(expr.Int(50))),
			expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
		),
	}
	o := NewOptimizer(DefaultConfig())
	ec, log := tracedCtx()
	rows := o.RunExec(ec, q)
	got := drain(t, rows)
	if len(got) != 0 {
		t.Fatalf("contradictory range delivered %d rows", len(got))
	}
	st, evs := rows.Stats(), log.Take()
	checkStream(t, st, evs)
	if st.Tactic != "empty-range" {
		t.Fatalf("tactic = %s; trace: %v", st.Tactic, evs)
	}
	if !hasEvent(evs, EvEmptyRange, "") {
		t.Fatalf("expected an empty-range event; trace: %v", evs)
	}
	if c := st.IO.IOCost(); c != 0 {
		t.Fatalf("empty range cost %d I/O, want 0", c)
	}
	if st.EstimateIO != 0 {
		t.Fatalf("empty range spent %d estimation I/O, want 0", st.EstimateIO)
	}
	if snap := o.Metrics().Snapshot(); snap.EmptyRanges < 1 {
		t.Fatalf("metrics missed the empty range: %+v", snap)
	}
}

// TestOrderedEmptyRangeShortcut: an ordered query with a contradictory
// range must deliver end-of-data at once with zero scan I/O instead of
// opening a real (full-range) scan. Classify sees the contradiction on
// the order index, so run answers it before any planner is reached.
func TestOrderedEmptyRangeShortcut(t *testing.T) {
	f := newFixture(t, 5000, "AGE")
	age := f.col(t, "AGE")
	for _, desc := range []bool{false, true} {
		q := &Query{
			Table: f.tab,
			Restriction: expr.NewAnd(
				expr.NewCmp(expr.GT, expr.Col(age, "AGE"), expr.Lit(expr.Int(50))),
				expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
			),
			OrderBy:   []int{age},
			OrderDesc: desc,
		}
		o := NewOptimizer(DefaultConfig())
		ec, log := tracedCtx()
		rows := o.RunExec(ec, q)
		got := drain(t, rows)
		if len(got) != 0 {
			t.Fatalf("ordered contradictory range delivered %d rows", len(got))
		}
		st, evs := rows.Stats(), log.Take()
		checkStream(t, st, evs)
		ev := firstEvent(evs, EvEmptyRange, "")
		if st.Tactic != "empty-range" || ev == nil || !strings.Contains(ev.Detail, "contradictory sargable range") {
			t.Fatalf("want Classify's empty-range shortcut; tactic %s, trace: %v", st.Tactic, evs)
		}
		if c := st.IO.IOCost(); c != 0 {
			t.Fatalf("ordered empty range attributed %d I/O, want 0 (tactic %s, trace: %v)", c, st.Tactic, evs)
		}
	}
}

// TestConfigMergeFieldWise asserts a one-field Config survives the
// defaults merge in NewOptimizer, and that the negative "off" sentinels
// pass through.
func TestConfigMergeFieldWise(t *testing.T) {
	d := DefaultConfig()

	o := NewOptimizer(Config{StaticThresholds: true})
	cfg := o.Config()
	if !cfg.StaticThresholds {
		t.Fatalf("StaticThresholds lost in merge")
	}
	if cfg.FgBufferCap != d.FgBufferCap ||
		cfg.RaceFactor != d.RaceFactor || cfg.ShortRange != d.ShortRange ||
		cfg.Criterion != d.Criterion || cfg.RID != d.RID {
		t.Fatalf("zero fields not defaulted: %+v", cfg)
	}

	o = NewOptimizer(Config{RaceFactor: 7})
	if got := o.Config().RaceFactor; got != 7 {
		t.Fatalf("RaceFactor = %v, want 7", got)
	}
	if got := o.Config().FgBufferCap; got != d.FgBufferCap {
		t.Fatalf("FgBufferCap = %v, want default", got)
	}

	// Negative sentinels mean "off" and survive untouched.
	o = NewOptimizer(Config{RaceFactor: -1, FgBufferCap: -1})
	if got := o.Config().RaceFactor; got != -1 {
		t.Fatalf("RaceFactor = %v, want -1 (racing off)", got)
	}
	if got := o.Config().FgBufferCap; got != -1 {
		t.Fatalf("FgBufferCap = %v, want -1 (unbounded)", got)
	}

	// Booleans: false is the paper default, so the zero value needs no
	// sentinel and an explicit true survives any merge.
	o = NewOptimizer(Config{DisableCompetition: true})
	if !o.Config().DisableCompetition {
		t.Fatalf("DisableCompetition lost in merge")
	}
}

// TestConfigMergesCriterionFieldWise: a Criterion that sets one field
// keeps the default of the other. A zero ScanCostFrac would make Jscan
// skip every index before its scan (a scan estimate is never below 0),
// so a Criterion naming only the default Threshold must run the
// default's strategy.
func TestConfigMergesCriterionFieldWise(t *testing.T) {
	d := DefaultConfig().Criterion
	for _, c := range []struct{ in, want competition.SwitchCriterion }{
		{competition.SwitchCriterion{Threshold: 0.5}, competition.SwitchCriterion{Threshold: 0.5, ScanCostFrac: d.ScanCostFrac}},
		{competition.SwitchCriterion{ScanCostFrac: 0.1}, competition.SwitchCriterion{Threshold: d.Threshold, ScanCostFrac: 0.1}},
	} {
		if got := NewOptimizer(Config{Criterion: c.in}).Config().Criterion; got != c.want {
			t.Fatalf("Criterion %+v merged to %+v, want %+v", c.in, got, c.want)
		}
	}

	f := newFixture(t, 10000, "AGE", "CITY")
	q := bgQuery(f, t, GoalTotalTime)
	strategy := func(cfg Config) string {
		rows := NewOptimizer(cfg).RunExec(nil, q)
		drain(t, rows)
		return rows.Stats().Strategy
	}
	want := strategy(Config{})
	if got := strategy(Config{Criterion: competition.SwitchCriterion{Threshold: d.Threshold}}); got != want {
		t.Fatalf("Threshold-only Criterion ran %s, the default %s", got, want)
	}
}

// TestBorrowFetcherCapNormalization covers the capRIDs == 0 bug: zero
// must mean the documented default, negative unbounded — never
// "overflow after the first delivered row".
func TestBorrowFetcherCapNormalization(t *testing.T) {
	f := newFixture(t, 10)
	var rids []storage.RID
	cur := f.tab.Heap.Cursor()
	for {
		_, r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rids = append(rids, r)
	}
	q := &Query{Table: f.tab}

	run := func(capRIDs int) *borrowFetcher {
		in := &ridQueue{}
		for _, r := range rids {
			in.push(r)
		}
		in.closed = true
		bf := newBorrowFetcher(nil, q, q.kernel(), in, &rowQueue{}, capRIDs)
		for {
			done, err := bf.step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return bf
			}
		}
	}

	if bf := newBorrowFetcher(nil, q, q.kernel(), &ridQueue{}, &rowQueue{}, 0); bf.capRIDs != DefaultConfig().FgBufferCap {
		t.Fatalf("capRIDs 0 normalized to %d, want the default %d", bf.capRIDs, DefaultConfig().FgBufferCap)
	}
	if bf := run(0); bf.overflow || len(bf.delivered) != len(rids) {
		t.Fatalf("cap 0 (default): overflow=%v delivered=%d, want all %d rows", bf.overflow, len(bf.delivered), len(rids))
	}
	if bf := run(-1); bf.overflow || len(bf.delivered) != len(rids) {
		t.Fatalf("cap -1 (unbounded): overflow=%v delivered=%d, want all %d rows", bf.overflow, len(bf.delivered), len(rids))
	}
	if bf := run(3); !bf.overflow || len(bf.delivered) != 3 {
		t.Fatalf("cap 3: overflow=%v delivered=%d, want overflow at 3", bf.overflow, len(bf.delivered))
	}
}

// TestConcurrentQueriesDoNotInterleaveStreams runs two goroutines
// querying one optimizer through a shared TraceLog and asserts each
// query's stream stays internally ordered: partitioned by QueryID,
// every stream is Seq 0..n-1 with no foreign events inside.
func TestConcurrentQueriesDoNotInterleaveStreams(t *testing.T) {
	f := newFixture(t, 8000, "AGE", "CITY")
	age, city := f.col(t, "AGE"), f.col(t, "CITY")
	sink := &TraceLog{}
	cfg := DefaultConfig()
	cfg.Trace = sink
	o := NewOptimizer(cfg)

	const perWorker = 20
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := &Query{
					Table: f.tab,
					Restriction: expr.NewAnd(
						expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(int64(10+i)))),
						expr.NewCmp(expr.EQ, expr.Col(city, "CITY"), expr.Lit(expr.Int(int64(w)))),
					),
					Goal: GoalTotalTime,
				}
				rows := o.RunExec(nil, q)
				for {
					_, ok, err := rows.Next()
					if err != nil {
						errs[w] = err
						return
					}
					if !ok {
						break
					}
				}
				if err := rows.Close(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	streams := map[uint64][]TraceEvent{}
	for _, ev := range sink.Take() {
		streams[ev.QueryID] = append(streams[ev.QueryID], ev)
	}
	if len(streams) != 2*perWorker {
		t.Fatalf("saw %d query streams, want %d", len(streams), 2*perWorker)
	}
	for qid, evs := range streams {
		for i, ev := range evs {
			if ev.Seq != i {
				t.Fatalf("query %d: event %d has Seq %d — streams interleaved", qid, i, ev.Seq)
			}
		}
	}
	snap := o.Metrics().Snapshot()
	if snap.Queries != 2*perWorker {
		t.Fatalf("metrics counted %d queries, want %d", snap.Queries, 2*perWorker)
	}
}
