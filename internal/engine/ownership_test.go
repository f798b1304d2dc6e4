package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// keptRow is the oracle's copy of one row of K.
type keptRow struct {
	id, grp   int64
	name, pad string
}

// keptDB builds K(ID, GRP, NAME, PAD) with indexes on ID and GRP, on
// small pages and a pool that holds a tenth of them.
func keptDB(t *testing.T, n, workers int) (*DB, []keptRow) {
	t.Helper()
	db := Open(Options{PageSize: 1024, PoolFrames: 24, Optimizer: core.Config{Parallelism: workers}})
	_, err := db.CreateTable("K",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "GRP", Type: expr.TypeInt},
		catalog.Column{Name: "NAME", Type: expr.TypeString},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []string{"ID", "GRP"} {
		if _, err := db.CreateIndex("K", ix+"_IX", ix); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]keptRow, n)
	for i := range rows {
		rows[i] = keptRow{int64(i), int64(i * 7 % 40), fmt.Sprintf("name-%04d", i*13%n), strings.Repeat("p", 20+i%9)}
		if err := db.Insert("K", rows[i].id, rows[i].grp, rows[i].name, rows[i].pad); err != nil {
			t.Fatal(err)
		}
	}
	return db, rows
}

// TestKeptRowsStayValid: a delivered row is the caller's for ever, though
// it copies nothing: its strings view the heap record or index key they
// were decoded from, which storage never writes again. Every case keeps
// the rows of its results as delivered, not cloned, changes the data
// under them — rewriting, relocating and deleting records, compacting
// the pages they lie on, splitting the leaves that held the keys — and
// then compares them with an oracle. Run sequentially and with two
// workers; -race covers the workers.
func TestKeptRowsStayValid(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for _, c := range []struct {
			name string
			run  func(t *testing.T, workers int)
		}{
			{"scans", keptScans},
			{"compaction", keptUnderCompaction},
			{"string-index", keptUnderLeafSplits},
			{"joins", keptJoins},
		} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) { c.run(t, workers) })
		}
	}
}

// keepRows runs src and keeps every row it delivers, uncopied, checking
// that it ran as strategy (a substring of the executed tactic and
// strategy).
func keepRows(t *testing.T, db *DB, src, strategy string) []expr.Row {
	t.Helper()
	res, err := db.QueryContext(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var kept []expr.Row
	for {
		row, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kept = append(kept, row) // kept as delivered, not cloned
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if st := res.Stats(); !strings.Contains(st.Tactic+" "+st.Strategy, strategy) {
		t.Fatalf("%s: ran as %s (%s), want %s", src, st.Strategy, st.Tactic, strategy)
	}
	return kept
}

// checkKept fails the test unless the kept rows still equal want, in
// order or (ordered false) as multisets.
func checkKept(t *testing.T, what string, kept, want []expr.Row, ordered bool) {
	t.Helper()
	got, exp := make([]string, len(kept)), make([]string, len(want))
	for i, row := range kept {
		got[i] = fmt.Sprint(row)
	}
	for i, row := range want {
		exp[i] = fmt.Sprint(row)
	}
	if !ordered {
		slices.Sort(got)
		slices.Sort(exp)
	}
	if !slices.Equal(got, exp) {
		t.Errorf("%s: the %d kept rows no longer equal the oracle's %d", what, len(got), len(exp))
	}
}

// keptScans keeps the rows of every scan that delivers — table scan,
// self-sufficient index scan, final stage, fast-first, sorted with a
// carried sort column, and a COUNT's zero-width retrieval — across the
// later queries and DML that rewrites every heap record: nothing a scan
// reuses (its scratch, a page) may be what a row is made of.
func keptScans(t *testing.T, workers int) {
	db, oracle := keptDB(t, 3000, workers)
	type shape struct {
		src      string
		strategy string
		want     func(r keptRow) (expr.Row, bool)
		kept     []expr.Row
	}
	shapes := []*shape{
		{src: "SELECT * FROM K WHERE PAD >= 'p'", strategy: "Tscan", want: func(r keptRow) (expr.Row, bool) {
			return expr.Row{expr.Int(r.id), expr.Int(r.grp), expr.Str(r.name), expr.Str(r.pad)}, true
		}},
		{src: "SELECT GRP FROM K WHERE GRP >= 10", strategy: "Sscan(GRP_IX)", want: func(r keptRow) (expr.Row, bool) {
			return expr.Row{expr.Int(r.grp)}, r.grp >= 10
		}},
		{src: "SELECT NAME, ID FROM K WHERE GRP = 7", strategy: "Fin", want: func(r keptRow) (expr.Row, bool) {
			return expr.Row{expr.Str(r.name), expr.Int(r.id)}, r.grp == 7
		}},
		{src: "SELECT PAD, NAME FROM K WHERE GRP < 4 ORDER BY ID", strategy: "sort(", want: func(r keptRow) (expr.Row, bool) {
			return expr.Row{expr.Str(r.pad), expr.Str(r.name)}, r.grp < 4
		}},
		{src: "SELECT NAME FROM K WHERE GRP = 3 LIMIT 1000", strategy: "fast-first", want: func(r keptRow) (expr.Row, bool) {
			return expr.Row{expr.Str(r.name)}, r.grp == 3
		}},
	}
	for _, sh := range shapes {
		sh.kept = keepRows(t, db, sh.src, sh.strategy)
	}
	if n := countRows(t, db, "SELECT COUNT(*) FROM K WHERE GRP >= 10"); n != int64(len(shapes[1].kept)) {
		t.Errorf("COUNT(*) = %d, the scan delivered %d", n, len(shapes[1].kept))
	}
	// Rewrite every record, then drop half of them.
	if n, err := db.Exec("UPDATE K SET NAME = 'overwritten-overwritten', PAD = 'q' WHERE ID >= 0", nil); err != nil || n != len(oracle) {
		t.Fatal(n, err)
	}
	if _, err := db.Exec("DELETE FROM K WHERE GRP < 20", nil); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, db, "SELECT COUNT(*) FROM K WHERE NAME = 'overwritten-overwritten'"); n != int64(len(oracle)/2) {
		t.Fatalf("%d rows left after the DML", n)
	}
	for _, sh := range shapes {
		var want []expr.Row
		for _, r := range oracle {
			if row, ok := sh.want(r); ok {
				want = append(want, row)
			}
		}
		checkKept(t, sh.src, sh.kept, want, strings.Contains(sh.src, "ORDER BY"))
	}
}

// keptUnderCompaction keeps every row of K from a table scan, then grows
// the records under them round after round, so that each page they were
// decoded from compacts — moves its live records into a fresh arena — at
// least three times. The rows with GRP < 8, at least one on every page,
// are never rewritten: a record of theirs changes address only when its
// page compacts, which is how the compactions are counted.
func keptUnderCompaction(t *testing.T, workers int) {
	db, oracle := keptDB(t, 600, workers)
	kept := keepRows(t, db, "SELECT * FROM K WHERE PAD >= 'p'", "Tscan")
	tab, err := db.Catalog().Table("K")
	if err != nil {
		t.Fatal(err)
	}
	sentinel := map[storage.PageID]storage.RID{}
	cur := tab.Heap.Cursor()
	for {
		rec, r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		row, err := expr.DecodeRow(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, seen := sentinel[r.Page]; !seen && row[1].I < 8 {
			sentinel[r.Page] = r
		}
	}
	cur.Close()
	if pages := tab.Heap.NumPages(); len(sentinel) != pages {
		t.Fatalf("%d of %d pages hold a sentinel row", len(sentinel), pages)
	}
	addr := func(r storage.RID) *byte {
		rec, err := tab.Heap.Get(r)
		if err != nil {
			t.Fatal(err)
		}
		return unsafe.SliceData(rec)
	}
	last, compactions := map[storage.PageID]*byte{}, map[storage.PageID]int{}
	for p, r := range sentinel {
		last[p] = addr(r)
	}
	for round := 1; round <= 6; round++ {
		pad := strings.Repeat("u", 28+round)
		if _, err := db.Exec("UPDATE K SET PAD = '"+pad+"' WHERE GRP >= 8", nil); err != nil {
			t.Fatal(err)
		}
		for p, r := range sentinel {
			if a := addr(r); a != last[p] {
				last[p] = a
				compactions[p]++
			}
		}
	}
	want := make([]expr.Row, len(oracle))
	for i, r := range oracle {
		want[i] = expr.Row{expr.Int(r.id), expr.Int(r.grp), expr.Str(r.name), expr.Str(r.pad)}
	}
	checkKept(t, "table scan under compaction", kept, want, false)
	fewest := math.MaxInt
	for p := range sentinel {
		fewest = min(fewest, compactions[p])
	}
	t.Logf("each of %d pages compacted at least %d times", len(sentinel), fewest)
	if fewest < 3 {
		t.Errorf("a page compacted %d times, want at least 3", fewest)
	}
}

// keptUnderLeafSplits keeps the rows of a self-sufficient scan of a
// string-keyed index, whose strings view the leaf keys, then splits the
// leaves they lie in with inserts and removes their entries with a
// DELETE. S is a table of its own, so no index of K changes the
// strategy of another case.
func keptUnderLeafSplits(t *testing.T, workers int) {
	db := Open(Options{PageSize: 1024, PoolFrames: 24, Optimizer: core.Config{Parallelism: workers}})
	if _, err := db.CreateTable("S", catalog.Column{Name: "ID", Type: expr.TypeInt}, catalog.Column{Name: "NAME", Type: expr.TypeString}); err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("S", "S_NAME_IX", "NAME")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	var want []expr.Row
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("name-%04d", i*7%n)
		if err := db.Insert("S", i, name); err != nil {
			t.Fatal(err)
		}
		if name >= "name-0500" {
			want = append(want, expr.Row{expr.Str(name)})
		}
	}
	kept := keepRows(t, db, "SELECT NAME FROM S WHERE NAME >= 'name-0500'", "Sscan(S_NAME_IX)")
	nodes := ix.Tree.NumNodes()
	for i := 0; i < n; i++ { // a longer key beside every key there is
		if err := db.Insert("S", n+i, fmt.Sprintf("name-%04d/%s", i, strings.Repeat("s", i%16))); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Tree.NumNodes() < 2*nodes {
		t.Fatalf("the inserts grew the index from %d to %d nodes: too few leaf splits", nodes, ix.Tree.NumNodes())
	}
	if m, err := db.Exec("DELETE FROM S WHERE ID < 1000", nil); err != nil || m != n {
		t.Fatal(m, err)
	}
	slices.SortFunc(want, func(a, b expr.Row) int { return strings.Compare(a[0].S, b[0].S) })
	checkKept(t, "string-keyed Sscan under splits and deletes", kept, want, true)
}

// keptJoins keeps joined rows that carry strings of the inner table, K,
// once probed through its ID index (inl: the strings come from the probe
// kernel's view of K's record) and once through a hash join (hj: from
// K's table access), then rewrites and deletes every K record.
func keptJoins(t *testing.T, workers int) {
	db, oracle := keptDB(t, 600, workers)
	if _, err := db.CreateTable("J",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "KID", Type: expr.TypeInt},
		catalog.Column{Name: "TAG", Type: expr.TypeString},
	); err != nil {
		t.Fatal(err)
	}
	var want []expr.Row
	for i := 0; i < 300; i++ {
		tag, k := fmt.Sprintf("tag-%03d", i), oracle[2*i]
		if err := db.Insert("J", i, k.id, tag); err != nil {
			t.Fatal(err)
		}
		want = append(want, expr.Row{expr.Str(tag), expr.Str(k.name), expr.Str(k.pad)})
	}
	stmt, err := db.PrepareContext(context.Background(), "SELECT J.TAG, K.NAME, K.PAD FROM J JOIN K ON J.KID = K.ID")
	if err != nil {
		t.Fatal(err)
	}
	jq := stmt.JoinQuery()
	table := func(name string) int {
		return slices.IndexFunc(jq.Tables, func(tab *catalog.Table) bool { return tab.Name == name })
	}
	j, k := table("J"), table("K")
	kept := map[string][]expr.Row{}
	for _, leg := range []struct {
		strategy string
		inner    core.JoinStagePlan
	}{
		{"J:tscan -> K:inl(ID_IX)", core.JoinStagePlan{Table: k, Operator: core.JoinOpINL, Index: "ID_IX", EstRows: 1}},
		{"J:tscan -> K:hj", core.JoinStagePlan{Table: k, Operator: core.JoinOpHJ}},
	} {
		plan := &core.JoinPlan{Stages: []core.JoinStagePlan{{Table: j, Operator: "tscan", EstRows: 300}, leg.inner}}
		rows := core.NewOptimizer(core.Config{Parallelism: workers}).RunJoin(nil, jq, plan)
		for {
			row, ok, err := rows.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			kept[leg.strategy] = append(kept[leg.strategy], row)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if st := rows.Stats(); st.Strategy != leg.strategy {
			t.Fatalf("ran as %s, want %s", st.Strategy, leg.strategy)
		}
	}
	if n, err := db.Exec("UPDATE K SET NAME = 'overwritten-overwritten', PAD = 'q' WHERE ID >= 0", nil); err != nil || n != len(oracle) {
		t.Fatal(n, err)
	}
	if _, err := db.Exec("DELETE FROM K WHERE GRP < 20", nil); err != nil {
		t.Fatal(err)
	}
	for strategy, rows := range kept {
		checkKept(t, strategy, rows, want, false)
	}
}

// TestCountUnderUpperBoundSkipsNulls: COUNT(*) projects nothing, so the
// restricted column's index answers it alone (Sscan), and a range with
// only an upper bound does not count the NULL keys below it.
func TestCountUnderUpperBoundSkipsNulls(t *testing.T) {
	db := Open(Options{})
	if _, err := db.CreateTable("N", catalog.Column{Name: "ID", Type: expr.TypeInt}, catalog.Column{Name: "A", Type: expr.TypeInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("N", "A_IX", "A"); err != nil {
		t.Fatal(err)
	}
	for i, k := 0, 0; i < 2000; i++ {
		var a any // NULL in every tenth row, else 18 rows a value of 0..99
		if i%10 != 0 {
			a = k % 100
			k++
		}
		if err := db.Insert("N", i, a); err != nil {
			t.Fatal(err)
		}
	}
	for src, want := range map[string]int64{
		"SELECT COUNT(*) FROM N WHERE A < 10":            180,
		"SELECT COUNT(*) FROM N WHERE A <= 9":            180,
		"SELECT COUNT(*) FROM N WHERE A >= 0":            1800,
		"SELECT COUNT(*) FROM N WHERE A < 10 AND A <> 3": 162,
		"SELECT COUNT(*) FROM N":                         2000,
	} {
		res, err := db.QueryContext(context.Background(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats(); rows[0][0].I != want || st.Strategy != "Sscan(A_IX)" {
			t.Errorf("%s = %d by %s, want %d by Sscan(A_IX)", src, rows[0][0].I, st.Strategy, want)
		}
	}
}

func newDBOpts(t *testing.T, rows int, opts Options) *DB {
	t.Helper()
	db := Open(opts)
	_, err := db.CreateTable("FAMILIES",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "AGE", Type: expr.TypeInt},
		catalog.Column{Name: "CITY", Type: expr.TypeString},
		catalog.Column{Name: "INCOME", Type: expr.TypeFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("FAMILIES", "AGE_IX", "AGE"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	cities := []string{"nashua", "boston", "keene", "dover"}
	for i := 0; i < rows; i++ {
		err := db.Insert("FAMILIES",
			i, int(rng.Int63n(100)), cities[rng.Intn(len(cities))], float64(rng.Intn(90000)))
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// checkReleased fails the test unless a query's exit let go of all it
// held: no page pin survives, and the goroutine count is back at its
// baseline (every morsel worker joined) within a short deadline.
func checkReleased(t *testing.T, db *DB, baseline int) {
	t.Helper()
	if n := db.Pool().PinnedPages(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResultCloseIdempotent closes a Result repeatedly: every Close
// after the first is a no-op, and the retrieval is released once.
func TestResultCloseIdempotent(t *testing.T) {
	db := newDBOpts(t, 500, Options{})
	baseline := runtime.NumGoroutine()
	res, err := db.QueryContext(context.Background(), "SELECT * FROM FAMILIES WHERE AGE >= 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := res.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	checkReleased(t, db, baseline)
}

// TestAllErrorPathReleasesSlot fails a query mid-drain (budget
// exhaustion inside All, which closes internally) and then closes
// again by hand: nothing held survives, and the budget is counted.
func TestAllErrorPathReleasesSlot(t *testing.T) {
	db := newDBOpts(t, 5000, Options{})
	db.Pool().EvictAll() // budgets meter pool misses; start cold
	baseline := runtime.NumGoroutine()
	ctx := core.WithIOBudget(context.Background(), 5)
	res, err := db.QueryContext(ctx, "SELECT * FROM FAMILIES WHERE INCOME >= 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("All err = %v, want ErrBudgetExceeded", err)
	}
	if err := res.Close(); err != nil {
		t.Fatalf("Close after failed All: %v", err)
	}
	checkReleased(t, db, baseline)
	if m := db.Metrics(); m.QueriesBudgetExceeded != 1 {
		t.Fatalf("QueriesBudgetExceeded = %d, want 1: %+v", m.QueriesBudgetExceeded, m)
	}
}

// TestExplainAnalyzeAbandonedReleasesSlot covers the rows==nil Result
// shape: an EXPLAIN ANALYZE result abandoned after partial reads holds
// nothing after (repeated) Close.
func TestExplainAnalyzeAbandonedReleasesSlot(t *testing.T) {
	db := newDBOpts(t, 1000, Options{})
	baseline := runtime.NumGoroutine()
	res, err := db.QueryContext(context.Background(), "EXPLAIN ANALYZE SELECT * FROM FAMILIES WHERE AGE >= 30", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Read one plan row, then abandon.
	if _, ok, err := res.Next(); err != nil || !ok {
		t.Fatalf("explain row: ok=%v err=%v", ok, err)
	}
	res.Close()
	res.Close()
	checkReleased(t, db, baseline)
}

// TestUnreadParallelResultReleases closes a two-worker Tscan's Result
// unread, and again after its first row: the first scan step starts the
// morsel workers, and they must exit with the Result either way.
func TestUnreadParallelResultReleases(t *testing.T) {
	db := newDBOpts(t, 20000, Options{Optimizer: core.Config{Parallelism: 2}})
	for _, read := range []bool{false, true} {
		baseline := runtime.NumGoroutine()
		res, err := db.QueryContext(context.Background(), "SELECT * FROM FAMILIES WHERE INCOME >= 0", nil)
		if err != nil {
			t.Fatal(err)
		}
		if read {
			if _, ok, err := res.Next(); err != nil || !ok {
				t.Fatalf("first row: ok=%v err=%v", ok, err)
			}
			if tac := res.Stats().Tactic; tac != "tscan" {
				t.Fatalf("tactic %q, want tscan", tac)
			}
			if n := runtime.NumGoroutine(); n <= baseline {
				t.Fatalf("%d goroutines after the first row, baseline %d: no morsel workers ran", n, baseline)
			}
		}
		if err := res.Close(); err != nil {
			t.Fatal(err)
		}
		checkReleased(t, db, baseline)
	}
}

// TestQueryContextCancelMidStream cancels between Next calls at the
// engine surface: the error must be context.Canceled, the cancellation
// must be visible in the metrics and the typed event stream, and no
// pin or goroutine may survive Close.
func TestQueryContextCancelMidStream(t *testing.T) {
	log := &core.TraceLog{}
	db := newDBOpts(t, 20000, Options{Optimizer: core.Config{Trace: log}})
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := db.QueryContext(ctx, "SELECT * FROM FAMILIES WHERE AGE >= 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := res.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	cancel()
	_, _, err = res.Next()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Next err = %v, want context.Canceled", err)
	}
	st, events := res.Stats(), log.Take()
	if !slices.ContainsFunc(events, func(ev core.TraceEvent) bool {
		return ev.Kind == core.EvQueryCancelled && ev.QueryID == st.QueryID
	}) {
		t.Fatalf("no query-cancelled event; trace: %v", events)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	checkReleased(t, db, baseline)
	if m := db.Metrics(); m.QueriesCancelled != 1 {
		t.Fatalf("QueriesCancelled = %d, want 1", m.QueriesCancelled)
	}
}

// TestFrozenQueryContextBudget drives the frozen-plan engine path
// under a budget.
func TestFrozenQueryContextBudget(t *testing.T) {
	db := newDBOpts(t, 5000, Options{})
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM FAMILIES WHERE INCOME >= :A1")
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := stmt.Freeze(nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Pool().EvictAll()
	ctx := core.WithIOBudget(context.Background(), 5)
	res, err := frozen.QueryContext(ctx, Binds{"A1": 0.0})
	if err != nil {
		t.Fatal(err)
	}
	_, err = res.All()
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	res.Close()
	if n := db.Pool().PinnedPages(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
}

// TestPrepareContextExpired covers the parse/compile checkpoints.
func TestPrepareContextExpired(t *testing.T) {
	db := newDBOpts(t, 10, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.PrepareContext(ctx, "SELECT * FROM FAMILIES"); !errors.Is(err, context.Canceled) {
		t.Fatalf("PrepareContext err = %v, want context.Canceled", err)
	}
	if _, err := db.QueryContext(ctx, "SELECT * FROM FAMILIES", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext err = %v, want context.Canceled", err)
	}
}
