package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"rdbdyn/internal/core"
	"rdbdyn/internal/workload"
)

// traceMixDB builds the fixture of the trace and metrics pins: rdbsh's
// demo FAMILIES and ORDERS tables, the tactics example's T (single
// indexes on A and B plus a covering A+B), and TestJoinPinnedIO's star
// CUST, ORD and ITEM, on an unbounded pool so every figure is the same
// at any width. The shell's settings apply: adaptive width under a
// ceiling of 4, feedback on, the plan cache on.
func traceMixDB(t *testing.T, sink core.TraceSink) *DB {
	t.Helper()
	db := Open(Options{
		Optimizer:      core.Config{Parallelism: 4, AdaptiveParallelism: true, Trace: sink},
		EnableFeedback: true,
		PlanCache:      PlanCacheConfig{Enable: true},
	})
	for _, spec := range []workload.TableSpec{{
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
	}, {
		Name: "ORDERS",
		Rows: 50000,
		Columns: []workload.ColumnSpec{
			{Name: "ID", Gen: &workload.Seq{}},
			{Name: "FAM", Gen: workload.Uniform{Lo: 0, Hi: 100000}},
			{Name: "QTY", Gen: workload.Uniform{Lo: 1, Hi: 10}},
		},
		Indexes: [][]string{{"FAM"}},
		Seed:    2,
	}, {
		Name: "T",
		Rows: 60000,
		Columns: []workload.ColumnSpec{
			{Name: "A", Gen: workload.Uniform{Lo: 0, Hi: 10000}},
			{Name: "B", Gen: workload.Uniform{Lo: 0, Hi: 10000}},
			{Name: "PAD", Gen: workload.Pad{Len: 50}},
		},
		Indexes: [][]string{{"A"}, {"B"}, {"A", "B"}},
		Seed:    5,
	}} {
		if _, err := workload.Build(db.Catalog(), spec); err != nil {
			t.Fatal(err)
		}
	}
	declare(t, db, [][]string{{"CUST", "ID", "SEG", "NAME"}, {"ORD", "ID", "CUST", "ITEM", "QTY", "PAD"}, {"ITEM", "ID", "KIND"}},
		[][2]string{{"CUST", "ID"}, {"ORD", "CUST"}, {"ITEM", "ID"}})
	const nCust, nOrd, nItem = 1000, 4000, 50
	rng, pad := rand.New(rand.NewSource(7)), strings.Repeat("x", 400)
	insert := func(table string, values ...any) {
		if err := db.Insert(table, values...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nCust; i++ {
		seg := int(rng.Int63n(10))
		if seg < 6 {
			seg = 0
		}
		insert("CUST", i, seg, fmt.Sprintf("c%05d", i))
	}
	for i := 0; i < nOrd; i++ {
		insert("ORD", i, int(rng.Int63n(nCust)), int(rng.Int63n(nItem)), 1+int(rng.Int63n(9)), pad)
	}
	for i := 0; i < nItem; i++ {
		insert("ITEM", i, int(rng.Int63n(5)))
	}
	// newSortAvoidDB's fat customers and orders, whose cheapest ORDER BY
	// plan keeps the driver's index order.
	declare(t, db, [][]string{{"SCUST", "ID", "SEG", "PAD"}, {"SORD", "ID", "CUST", "PAD"}},
		[][2]string{{"SCUST", "ID"}, {"SORD", "CUST"}})
	rng = rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		insert("SCUST", i, i%5, pad)
	}
	for i := 0; i < 900; i++ {
		insert("SORD", i, int(rng.Int63n(300)), pad)
	}
	return db
}

// traceMix is the fixed sequential statement mix of the pins: every
// single-table tactic, a Jscan race, a switch to Tscan, a borrow
// overflow, an empty range, a three-table join re-optimized mid-flight
// (after a join that teaches the feedback loop a 16x overestimate of
// CUST), an ORDER BY join that skips its sort, an adaptive width choice,
// an I/O-budget cancellation, a shape run until the plan cache replays
// it, and the five statements of the CI rdbsh smoke. budget > 0 runs the
// statement under that simulated-I/O budget.
var traceMix = []struct {
	src    string
	binds  Binds
	budget int64
}{
	{src: "SELECT * FROM T WHERE A < 300 AND B < 4000 OPTIMIZE FOR TOTAL TIME"},
	{src: "SELECT * FROM T WHERE A < 300 LIMIT 5"},
	{src: "SELECT * FROM T WHERE A < 300 OPTIMIZE FOR FAST FIRST"},
	{src: "SELECT * FROM T WHERE A < 2000 OPTIMIZE FOR FAST FIRST"},
	{src: "SELECT * FROM T WHERE A >= 0 AND B < 200 ORDER BY A OPTIMIZE FOR FAST FIRST"},
	{src: "SELECT A, B FROM T WHERE A < 9000 AND B < 50 OPTIMIZE FOR TOTAL TIME"},
	{src: "SELECT * FROM T WHERE PAD = 'nope'"},
	{src: "SELECT A, B FROM T WHERE A < 100"},
	{src: "SELECT * FROM T WHERE PAD = 'nope' ORDER BY A LIMIT 3"},
	{src: "SELECT * FROM T WHERE A >= 1 OPTIMIZE FOR TOTAL TIME"},
	{src: "SELECT * FROM T WHERE A > 50 AND A < 10"},
	{src: "SELECT COUNT(*) FROM FAMILIES WHERE AGE < 500 AND CITY > 100"},
	{src: "SELECT COUNT(*) FROM T WHERE A < 3000 AND B < 3000", budget: 50},
	{src: "SELECT COUNT(*) FROM FAMILIES JOIN ORDERS ON FAMILIES.ID = ORDERS.FAM WHERE FAMILIES.AGE < 50", budget: 4},
	{src: "SELECT CUST.ID FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE CUST.NAME = 'c00000'"},
	{src: "SELECT CUST.NAME, ORD.QTY, ITEM.KIND FROM CUST JOIN ORD ON CUST.ID = ORD.CUST JOIN ITEM ON ORD.ITEM = ITEM.ID WHERE SEG = 0"},
	{src: "SELECT SCUST.ID, SORD.ID FROM SCUST JOIN SORD ON SCUST.ID = SORD.CUST WHERE SCUST.ID < 12 ORDER BY SCUST.ID"},
	{src: "SELECT * FROM T WHERE A = :v", binds: Binds{"v": 77}},
	{src: "SELECT * FROM T WHERE A = :v", binds: Binds{"v": 78}},
	{src: "SELECT * FROM T WHERE A = :v", binds: Binds{"v": 79}},
	{src: "SELECT * FROM T WHERE A = :v", binds: Binds{"v": 80}},
	{src: "EXPLAIN ANALYZE SELECT COUNT(*) FROM FAMILIES WHERE AGE < 500 AND CITY > 100"},
	{src: "SELECT COUNT(*) FROM FAMILIES WHERE AGE BETWEEN 100 AND 200"},
	{src: "SELECT ID FROM FAMILIES WHERE AGE < 3 OR AGE < 2 LIMIT 100"},
	{src: "SELECT COUNT(*) FROM FAMILIES JOIN ORDERS ON FAMILIES.ID = ORDERS.FAM WHERE FAMILIES.AGE < 50"},
	{src: "EXPLAIN SELECT * FROM FAMILIES WHERE AGE >= 9990"},
}

// runTraceMix runs the mix in order on db, draining every statement,
// and renders what each showed from an evicted pool: its rows or error,
// an EXPLAIN's (aspect, detail) rows, and its trace as log (when not
// nil) received it, one TraceEvent.String line per event.
func runTraceMix(t *testing.T, db *DB, log *core.TraceLog) string {
	t.Helper()
	var b strings.Builder
	for _, stmt := range traceMix {
		ctx := context.Background()
		if stmt.budget > 0 {
			ctx = core.WithIOBudget(ctx, stmt.budget)
		}
		fmt.Fprintf(&b, "== %s %v\n", stmt.src, stmt.binds)
		db.Pool().EvictAll()
		res, err := db.QueryContext(ctx, stmt.src, stmt.binds)
		if err != nil {
			t.Fatalf("%s: %v", stmt.src, err)
		}
		n, explain := 0, strings.HasPrefix(stmt.src, "EXPLAIN")
		for {
			row, ok, err := res.Next()
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				break
			}
			if !ok {
				break
			}
			n++
			if explain {
				fmt.Fprintf(&b, "%s: %s\n", row[0].String(), row[1].String())
			}
		}
		if err := res.Close(); err != nil {
			t.Fatalf("%s: close: %v", stmt.src, err)
		}
		st := res.Stats()
		fmt.Fprintf(&b, "-- %d rows, tactic %s, strategy %s, I/O %d\n", n, st.Tactic, st.Strategy, st.IO.IOCost())
		if log != nil {
			for _, ev := range log.Take() {
				fmt.Fprintf(&b, "* %s\n", ev.String())
			}
		}
	}
	return b.String()
}

// TestTraceGolden runs the mix and compares, byte for byte, what every
// statement showed against testdata/trace_mix.golden: the EXPLAIN
// ANALYZE rows come through the sink EXPLAIN attaches to its ExecCtx,
// every other line through the DB's Config.Trace. A change to how
// decisions are recorded must not move a byte; only a deliberate change
// in what a decision reports re-generates the file.
func TestTraceGolden(t *testing.T) {
	log := &core.TraceLog{}
	got := runTraceMix(t, traceMixDB(t, log), log)
	want, err := os.ReadFile("testdata/trace_mix.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(g), len(w))
}

// TestMetricsSnapshotPinned runs the mix on a fresh DB with no trace
// sink and compares the whole metrics snapshot to literal figures: every
// counter is bumped at its own decision site, traced or not, and none
// may drift. Two statements record less than they once did, because
// metrics count only what ran: the closing plain "EXPLAIN SELECT * FROM
// FAMILIES WHERE AGE >= 9990" runs nothing (background-only 9 -> 8, and
// its >=8x estimate-error sample goes), and "SELECT * FROM T WHERE A <
// 300 LIMIT 5" stops at its limit, so it still wins fast-first but its
// >=8x sample goes (>=8x 2 -> 0).
func TestMetricsSnapshotPinned(t *testing.T) {
	db := traceMixDB(t, nil)
	runTraceMix(t, db, nil)
	got := db.Metrics()
	want := core.MetricsSnapshot{
		Queries:          26,
		EmptyRanges:      1,
		ScanAbandonments: 19,
		StrategySwitches: 5,
		RacesResolved:    6,
		BorrowOverflows:  1,
		TacticWins: map[string]int64{"background-only": 8, "fast-first": 4, "fscan": 1, "index-only": 2,
			"sorted": 1, "sscan": 1, "tscan": 1},
		EstimateErrorLog:      map[string]int64{"2x": 5, "4x": 1, "<=1/8x": 2, "~1x": 8},
		QueriesBudgetExceeded: 2,
		JoinQueries:           5,
		JoinOrdersChosen:      5,
		JoinReoptimizations:   2,
		JoinOperatorWins:      map[string]int64{"hj": 3, "inl": 2},
		JoinSortsAvoided:      1,
		ParallelWidths:        map[string]int64{"1": 3, "2": 4, "4": 10},
		ParallelSeqDowngrades: 3,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot drifted:\n got %#v\nwant %#v", got, want)
	}
}
