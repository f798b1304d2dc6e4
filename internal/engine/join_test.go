package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/workload"
)

// newJoinDB builds a CUST/ORD pair with referential join keys.
func newJoinDB(t *testing.T, nCust, nOrd int, opts Options) *DB {
	t.Helper()
	db := Open(opts)
	if _, err := db.CreateTable("CUST",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "SEG", Type: expr.TypeInt},
		catalog.Column{Name: "NAME", Type: expr.TypeString},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("ORD",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "CUST", Type: expr.TypeInt},
		catalog.Column{Name: "QTY", Type: expr.TypeInt},
	); err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][3]string{
		{"CUST", "CUST_ID_IX", "ID"},
		{"ORD", "ORD_CUST_IX", "CUST"},
	} {
		if _, err := db.CreateIndex(ix[0], ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < nCust; i++ {
		if err := db.Insert("CUST", i, int(rng.Int63n(4)), "c"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nOrd; i++ {
		if err := db.Insert("ORD", i, int(rng.Int63n(int64(nCust))), 1+int(rng.Int63n(9))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestEngineJoinSQL(t *testing.T) {
	db := newJoinDB(t, 200, 800, Options{})
	res, err := db.QueryContext(context.Background(),
		"SELECT CUST.NAME, ORD.QTY FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE SEG = 0 AND QTY >= :Q",
		Binds{"Q": 5})
	if err != nil {
		t.Fatal(err)
	}
	if cols := res.Columns(); len(cols) != 2 || cols[0] != "CUST.NAME" || cols[1] != "ORD.QTY" {
		t.Fatalf("columns = %v", cols)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("join returned no rows")
	}
	for _, r := range rows {
		if r[1].I < 5 {
			t.Fatalf("row %v violates QTY restriction", r)
		}
	}
	st := res.Stats()
	if st.Tactic != "join" || len(st.JoinStages) != 2 {
		t.Fatalf("stats = tactic %q, %d stages", st.Tactic, len(st.JoinStages))
	}

	// Cross-check the count against two single-table scans.
	var want int64
	cres, err := db.QueryContext(context.Background(), "SELECT ID FROM CUST WHERE SEG = 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	crows, err := cres.All()
	if err != nil {
		t.Fatal(err)
	}
	seg0 := map[int64]bool{}
	for _, r := range crows {
		seg0[r[0].I] = true
	}
	ores, err := db.QueryContext(context.Background(), "SELECT CUST, QTY FROM ORD WHERE QTY >= 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	orows, err := ores.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range orows {
		if seg0[r[0].I] {
			want++
		}
	}
	if int64(len(rows)) != want {
		t.Fatalf("join delivered %d rows, independent count says %d", len(rows), want)
	}
}

func TestEngineJoinCountStar(t *testing.T) {
	db := newJoinDB(t, 100, 400, Options{})
	res, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM CUST JOIN ORD ON CUST.ID = ORD.CUST", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	// Every order references an existing customer.
	if len(rows) != 1 || rows[0][0].I != 400 {
		t.Fatalf("COUNT(*) = %v", rows)
	}
}

func TestEngineJoinExplainAnalyze(t *testing.T) {
	db := newJoinDB(t, 100, 400, Options{})
	res, err := db.QueryContext(context.Background(),
		"EXPLAIN ANALYZE SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE SEG = 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	aspects := map[string]string{}
	var stageRows int
	for _, r := range rows {
		aspects[r[0].S] = r[1].S
		if strings.HasPrefix(r[0].S, "stage ") {
			stageRows++
		}
	}
	if aspects["tactic"] != "join" {
		t.Fatalf("tactic aspect = %q", aspects["tactic"])
	}
	if aspects["join plan"] == "" {
		t.Fatalf("no join plan aspect in %v", aspects)
	}
	if stageRows != 2 {
		t.Fatalf("want 2 per-stage rows, got %d (%v)", stageRows, aspects)
	}
	if _, ok := aspects["static optimizer would freeze"]; !ok {
		t.Fatalf("missing static contrast row")
	}
	// Stage rows carry est-vs-actual.
	for k, v := range aspects {
		if strings.HasPrefix(k, "stage ") && (!strings.Contains(v, "est ") || !strings.Contains(v, "actual ")) {
			t.Fatalf("stage row %q = %q lacks est/actual", k, v)
		}
	}
}

func TestEngineJoinPlainExplainDoesNotExecute(t *testing.T) {
	db := newJoinDB(t, 100, 400, Options{})
	res, err := db.QueryContext(context.Background(), "EXPLAIN SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range rows {
		if r[0].S == "join plan" && r[1].S != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN output lacks join plan: %v", rows)
	}
	if got := db.Metrics().JoinQueries; got != 0 {
		t.Fatalf("plain EXPLAIN executed %d join queries", got)
	}
}

// Regression: EXPLAIN of a join built its "static optimizer would
// freeze" contrast under a background context, so that second estimation
// pass ignored the caller's cancellation and I/O budget. The whole
// EXPLAIN now runs under the statement's execution context.
func TestEngineJoinExplainHonorsContext(t *testing.T) {
	db := newJoinDB(t, 400, 4000, Options{})
	// The indexed local restriction makes both estimation passes descend
	// ORD_CUST_IX under the query's governor.
	stmt, err := db.PrepareContext(context.Background(), "EXPLAIN SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE ORD.CUST < 200")
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		want  error
		maxIO int64
	}{
		{"cancelled context", cancelled, context.Canceled, 1}, // unwinds within one page access
		{"1-page budget", core.WithIOBudget(context.Background(), 1), core.ErrBudgetExceeded, 2},
	} {
		db.Pool().EvictAll()
		db.Pool().ResetStats()
		if _, err := stmt.QueryContext(tc.ctx, nil); !errors.Is(err, tc.want) {
			t.Fatalf("EXPLAIN under a %s: err = %v, want %v", tc.name, err, tc.want)
		}
		if got := db.Pool().Stats().IOCost(); got > tc.maxIO {
			t.Fatalf("EXPLAIN under a %s spent %d I/O, want at most %d", tc.name, got, tc.maxIO)
		}
		if n := db.Pool().PinnedPages(); n != 0 {
			t.Fatalf("%s: %d pins leaked", tc.name, n)
		}
	}
}

// TestEngineJoinNeverFrozen runs a join repeatedly through a DB with
// the plan cache on: the shape must never promote, the capture
// rejection must be counted, and single-table promotion must keep
// working alongside.
func TestEngineJoinNeverFrozen(t *testing.T) {
	db := newJoinDB(t, 100, 400, Options{PlanCache: PlanCacheConfig{Enable: true}})
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE SEG = 0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := stmt.QueryContext(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.All(); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.PlanCacheSnapshot()
	if snap.Frozen != 0 {
		t.Fatalf("join shape froze: %+v", snap)
	}
	m := db.Metrics()
	if m.JoinQueries != 5 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.JoinOrdersChosen != 5 {
		t.Fatalf("join orders chosen = %d", m.JoinOrdersChosen)
	}

	// The same DB still promotes single-table shapes.
	single, err := db.PrepareContext(context.Background(), "SELECT * FROM CUST WHERE ID >= 90")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res, err := single.QueryContext(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.All(); err != nil {
			t.Fatal(err)
		}
	}
	if snap := db.PlanCacheSnapshot(); snap.Frozen == 0 {
		t.Fatalf("single-table shape failed to freeze alongside joins: %+v", snap)
	}
}

func TestEngineJoinFreezeRejected(t *testing.T) {
	db := newJoinDB(t, 10, 20, Options{})
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Freeze(nil); err == nil {
		t.Fatal("Freeze accepted a join statement")
	}
	if q := stmt.CoreQuery(); q != nil {
		t.Fatalf("CoreQuery on a join = %+v", q)
	}
	if jq := stmt.JoinQuery(); jq == nil || len(jq.Tables) != 2 {
		t.Fatalf("JoinQuery = %+v", jq)
	}
}

// TestEngineSelfJoinAliases runs an aliased self-join end to end: two
// occurrences of CUST joined on ID, so every seg-0 customer pairs with
// itself exactly once.
func TestEngineSelfJoinAliases(t *testing.T) {
	db := newJoinDB(t, 120, 300, Options{})
	res, err := db.QueryContext(context.Background(), "SELECT a.ID, b.NAME FROM CUST a JOIN CUST AS b ON a.ID = b.ID WHERE a.SEG = 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cols := res.Columns(); len(cols) != 2 || cols[0] != "a.ID" || cols[1] != "b.NAME" {
		t.Fatalf("columns = %v", cols)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	cres, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM CUST WHERE SEG = 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	crows, err := cres.All()
	if err != nil {
		t.Fatal(err)
	}
	if want := crows[0][0].I; int64(len(rows)) != want {
		t.Fatalf("self-join delivered %d rows, want %d", len(rows), want)
	}
	// Stage names carry the aliases.
	st := res.Stats()
	names := map[string]bool{}
	for _, sg := range st.JoinStages {
		names[sg.Table] = true
	}
	if !names["a"] || !names["b"] {
		t.Fatalf("stage tables = %v, want aliases a and b", names)
	}
	// Unaliased self-joins stay rejected, with an alias hint.
	if _, err := db.QueryContext(context.Background(), "SELECT * FROM CUST JOIN CUST ON CUST.ID = CUST.SEG", nil); err == nil ||
		!strings.Contains(err.Error(), "alias") {
		t.Fatalf("unaliased self-join error = %v", err)
	}
}

// TestEngineJoinPicksHashJoin joins on columns with no usable probe
// index: the per-stage competition must run an hj stage and count it.
func TestEngineJoinPicksHashJoin(t *testing.T) {
	db := newJoinDB(t, 60, 200, Options{})
	res, err := db.QueryContext(context.Background(), "SELECT CUST.ID, ORD.ID FROM CUST JOIN ORD ON CUST.SEG = ORD.QTY", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("join returned no rows")
	}
	var ranHJ bool
	for _, sg := range res.Stats().JoinStages {
		if sg.Operator == core.JoinOpHJ {
			ranHJ = true
		}
	}
	if !ranHJ {
		t.Fatalf("no hj stage in %s", res.Stats().Strategy)
	}
	if m := db.Metrics(); m.JoinOperatorWins[core.JoinOpHJ] == 0 {
		t.Fatalf("hj win not counted: %+v", m.JoinOperatorWins)
	}
}

// declare creates tables, each given as its name followed by its
// columns (INT, except NAME and PAD), then the index TABLE_COL_IX for
// each {TABLE, COL}: the indexes exist before the rows arrive.
func declare(t *testing.T, db *DB, tables [][]string, indexes [][2]string) {
	t.Helper()
	for _, tab := range tables {
		var cols []catalog.Column
		for _, name := range tab[1:] {
			col := catalog.Column{Name: name, Type: expr.TypeInt}
			if name == "NAME" || name == "PAD" {
				col.Type = expr.TypeString
			}
			cols = append(cols, col)
		}
		if _, err := db.CreateTable(tab[0], cols...); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range indexes {
		if _, err := db.CreateIndex(ix[0], ix[0]+"_"+ix[1]+"_IX", ix[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// newPinnedJoinDB loads one of the two databases TestJoinPinnedIO's
// figures were taken on, both on 128 frames with races off. The star is
// 1000 CUST, 4000 fat ORD, 50 ITEM, every join key indexed; SEG = 0
// covers 60% of customers, so the unsargable 10% guess undershoots even
// before feedback is poisoned. The other has no index on ORD's join key,
// so no index probe serves the join, while REGION (1% per value) gives
// a hash join a cheap index-assisted build side.
func newPinnedJoinDB(t *testing.T, star bool) *DB {
	t.Helper()
	db := Open(Options{PoolFrames: 128, Optimizer: core.Config{RaceFactor: -1}})
	insert := func(table string, values ...any) {
		if err := db.Insert(table, values...); err != nil {
			t.Fatal(err)
		}
	}
	const nCust, nOrd, nItem = 1000, 4000, 50
	if !star {
		declare(t, db, [][]string{{"CUST", "ID", "SEG", "NAME"}, {"ORD", "ID", "CUST", "REGION", "QTY", "PAD"}},
			[][2]string{{"CUST", "ID"}, {"ORD", "REGION"}})
		rng, pad := rand.New(rand.NewSource(13)), strings.Repeat("x", 800)
		for i := 0; i < nCust; i++ {
			insert("CUST", i, int(rng.Int63n(5)), fmt.Sprintf("c%05d", i))
		}
		for i := 0; i < nOrd; i++ {
			insert("ORD", i, int(rng.Int63n(nCust)), i%100, 1+int(rng.Int63n(9)), pad)
		}
		return db
	}
	declare(t, db, [][]string{{"CUST", "ID", "SEG", "NAME"}, {"ORD", "ID", "CUST", "ITEM", "QTY", "PAD"}, {"ITEM", "ID", "KIND"}},
		[][2]string{{"CUST", "ID"}, {"ORD", "CUST"}, {"ITEM", "ID"}})
	rng, pad := rand.New(rand.NewSource(7)), strings.Repeat("x", 400)
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
	return db
}

// poisonCust teaches opt, which must run with feedback on, that CUST's
// whole-table guesses run 16x over: a dynamic join driven by CUST under
// an unsargable restriction the 10 % guess sizes at 100 rows, of which
// one matches. The first observation is adopted outright and clamped at
// the 1/16 floor. What else the run learns — its ORD stage and the
// CUST–ORD output — no estimate of the star join reads.
func poisonCust(t *testing.T, db *DB, opt *core.Optimizer) {
	t.Helper()
	stmt, err := db.PrepareContext(context.Background(), "SELECT CUST.ID FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE CUST.NAME = 'c00000'")
	if err != nil {
		t.Fatal(err)
	}
	rows := opt.RunJoin(nil, stmt.JoinQuery(), nil)
	for {
		if _, ok, err := rows.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range opt.FeedbackSnapshot() {
		if c.Table == "CUST" && c.Index == "" && c.Card == 1.0/16 {
			return
		}
	}
	t.Fatalf("the poisoning join learned %+v (plan %s), want CUST at 1/16", opt.FeedbackSnapshot(), rows.Stats().Strategy)
}

// TestJoinPinnedIO pins the join executor's attributed I/O, page for
// page, on the comparisons the engine's claims rest on; each leg runs
// from an evicted pool on its own twin database. Statically (the plan
// chosen up front runs to completion, as a freezing optimizer would)
// against dynamically: under accurate statistics both land on one plan
// and one cost; under a poisoned feedback correction (CUST whole-table
// guesses "run 16x over") the static plan commits to index probes sized
// for the bogus estimate, while the dynamic run sees the driver's true
// cardinality at the first boundary and re-plans into hj. And on the
// unindexed equi-key: each forced scan-based competitor against the
// dynamic run, which must settle on hj.
func TestJoinPinnedIO(t *testing.T) {
	const (
		starSQL = "SELECT CUST.NAME, ORD.QTY, ITEM.KIND FROM CUST JOIN ORD ON CUST.ID = ORD.CUST JOIN ITEM ON ORD.ITEM = ITEM.ID WHERE SEG = 0"
		hashSQL = "SELECT CUST.NAME, ORD.QTY FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE ORD.REGION = 3"
	)
	io := map[string]int64{}
	for _, leg := range []struct {
		name     string
		star     bool
		poisoned bool
		static   bool                 // run the plan PlanJoin freezes
		forced   []core.JoinStagePlan // or this one; neither = dynamic
		strategy string
		io       int64
		rows     int
		reopts   int64
	}{
		{"accurate/static", true, false, true, nil, "ITEM:tscan -> ORD:hj -> CUST:hj", 215, 2293, 0},
		{"accurate/dynamic", true, false, false, nil, "ITEM:tscan -> ORD:hj -> CUST:hj", 215, 2293, 0},
		{"skewed/static", true, true, true, nil, "CUST:tscan -> ORD:inl(ORD_CUST_IX) -> ITEM:hj", 1014, 2293, 0},
		{"skewed/dynamic", true, true, false, nil, "CUST:tscan -> ORD:hj -> ITEM:hj", 215, 2293, 1},
		// CUST drives, ORD is rescanned as the inner.
		{"unindexed/nl", false, false, false, []core.JoinStagePlan{
			{Table: 0, Operator: "tscan", EstRows: 1000},
			{Table: 1, Operator: core.JoinOpNL, EstRows: 1}}, "CUST:tscan -> ORD:nl", 403, 40, 0},
		// The restricted ORD side drives and probes CUST_ID_IX: the best
		// an index probe can do with ORD's join key unindexed.
		{"unindexed/inl", false, false, false, []core.JoinStagePlan{
			{Table: 1, Operator: "tscan", EstRows: 40},
			{Table: 0, Operator: core.JoinOpINL, Index: "CUST_ID_IX", EstRows: 1}}, "ORD:tscan -> CUST:inl(CUST_ID_IX)", 408, 40, 0},
		{"unindexed/dynamic", false, false, false, nil, "ORD:iscan(ORD_REGION_IX) -> CUST:hj", 43, 40, 0},
	} {
		db, src := newPinnedJoinDB(t, leg.star), hashSQL
		if leg.star {
			src = starSQL
		}
		stmt, err := db.PrepareContext(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{RaceFactor: -1, Feedback: leg.poisoned}
		opt, jq := core.NewOptimizer(cfg), stmt.JoinQuery()
		if leg.poisoned {
			poisonCust(t, db, opt)
		}
		db.Pool().EvictAll()
		var plan *core.JoinPlan
		if leg.forced != nil {
			plan = &core.JoinPlan{Stages: leg.forced}
		} else if leg.static {
			if plan, err = opt.PlanJoin(nil, jq); err != nil {
				t.Fatal(err)
			}
		}
		reopts := -opt.Metrics().Snapshot().JoinReoptimizations
		rows, n := opt.RunJoin(nil, jq, plan), 0
		for {
			_, ok, err := rows.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		st := rows.Stats()
		reopts += opt.Metrics().Snapshot().JoinReoptimizations
		io[leg.name] = st.IO.IOCost()
		if st.Strategy != leg.strategy || io[leg.name] != leg.io || n != leg.rows || reopts != leg.reopts {
			t.Errorf("%s: %s, %d I/O, %d rows, %d re-optimizations; want %s, %d, %d, %d",
				leg.name, st.Strategy, io[leg.name], n, reopts, leg.strategy, leg.io, leg.rows, leg.reopts)
		}
	}
	// The gates a deliberate re-pin must still clear.
	if io["skewed/static"] < 4*io["skewed/dynamic"] {
		t.Errorf("re-optimization under skew: static %d I/O, dynamic %d, want >= 4x", io["skewed/static"], io["skewed/dynamic"])
	}
	if dyn := io["unindexed/dynamic"]; io["unindexed/nl"] < 3*dyn || io["unindexed/inl"] < 3*dyn {
		t.Errorf("hj on the unindexed equi-key: nl %d, inl %d, dynamic %d I/O, want >= 3x below both", io["unindexed/nl"], io["unindexed/inl"], dyn)
	}
}

// newSortAvoidDB builds the fat-table schema whose cheapest ORDER BY
// plan is order-preserving (see core's sortAvoidFixture): nCust
// customers and nOrd orders referencing them at random from seed.
func newSortAvoidDB(t *testing.T, opts Options, nCust, nOrd int, seed int64) *DB {
	t.Helper()
	db := Open(opts)
	declare(t, db, [][]string{{"CUST", "ID", "SEG", "PAD"}, {"ORD", "ID", "CUST", "PAD"}},
		[][2]string{{"CUST", "ID"}, {"ORD", "CUST"}})
	rng := rand.New(rand.NewSource(seed))
	pad := strings.Repeat("p", 400)
	for i := 0; i < nCust; i++ {
		if err := db.Insert("CUST", i, i%5, pad); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nOrd; i++ {
		if err := db.Insert("ORD", i, int(rng.Int63n(int64(nCust))), pad); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestEngineJoinOrderBySortAvoided runs an ORDER BY join through SQL:
// the run must skip the materialized sort and still deliver what an
// independent single-table retrieval of the orders says it should, in
// key order, for the pinned rows and attributed I/O.
func TestEngineJoinOrderBySortAvoided(t *testing.T) {
	const strategy = "CUST:iscan(CUST_ID_IX) -> ORD:inl(ORD_CUST_IX)"
	for _, tc := range []struct {
		opts        Options
		nCust, nOrd int
		seed        int64
		lim, rows   int
		io          int64
	}{
		{Options{}, 300, 900, 11, 12, 37, 26},
		{Options{PoolFrames: 128, Optimizer: core.Config{RaceFactor: -1}}, 1333, 4000, 17, 53, 176, 120},
	} {
		db := newSortAvoidDB(t, tc.opts, tc.nCust, tc.nOrd, tc.seed)
		orders, _ := runShape(t, db, cacheShape{name: "orders", src: "SELECT CUST, ID FROM ORD WHERE CUST < :lim", binds: Binds{"lim": tc.lim}})
		want := map[string]int{}
		for _, o := range orders {
			want[fmt.Sprint(o)]++
		}
		db.Pool().EvictAll()
		rows, st := runShape(t, db, cacheShape{name: "join", src: fmt.Sprintf(
			"SELECT CUST.ID, ORD.ID FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE CUST.ID < %d ORDER BY CUST.ID", tc.lim)})
		if !st.SortAvoided || st.Strategy != strategy {
			t.Fatalf("sort avoided = %v on %s, want %s", st.SortAvoided, st.Strategy, strategy)
		}
		if len(rows) != tc.rows || len(orders) != tc.rows || st.IO.IOCost() != tc.io {
			t.Fatalf("%d rows for %d orders at %d I/O, want %d rows at %d", len(rows), len(orders), st.IO.IOCost(), tc.rows, tc.io)
		}
		for i, row := range rows {
			if want[fmt.Sprint(row)]--; want[fmt.Sprint(row)] < 0 {
				t.Fatalf("row %d: %v is not an order of a customer below %d (or came twice)", i, row, tc.lim)
			}
			if i > 0 && expr.Compare(rows[i-1][0], row[0]) > 0 {
				t.Fatalf("row %d: key %v after %v", i, row[0], rows[i-1][0])
			}
		}
		if m := db.Metrics(); m.JoinSortsAvoided == 0 {
			t.Fatalf("sorts-avoided metric = %+v", m)
		}
	}
}

// TestEngineJoinFeedbackLoop runs the same join twice with feedback on:
// the second run's driver estimate must be corrected by the first run's
// observed actuals.
func TestEngineJoinFeedbackLoop(t *testing.T) {
	db := newJoinDB(t, 200, 800, Options{EnableFeedback: true})
	src := "SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE SEG = 0"
	for i := 0; i < 2; i++ {
		res, err := db.QueryContext(context.Background(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.All(); err != nil {
			t.Fatal(err)
		}
	}
	if len(db.FeedbackSnapshot()) == 0 {
		t.Fatal("join runs recorded no feedback corrections")
	}
}

// TestJoinHashStageLearnsNothing: an hj stage's actual counts join
// output, which no estimate of its build table reads, so a dynamic hj
// join with feedback on learns its output record and no record for the
// hj stage. The tables are the shell's demo FAMILIES and ORDERS.
func TestJoinHashStageLearnsNothing(t *testing.T) {
	db := Open(Options{PoolFrames: 1024, EnableFeedback: true})
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
	}} {
		if _, err := workload.Build(db.Catalog(), spec); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) FROM FAMILIES JOIN ORDERS ON FAMILIES.ID = ORDERS.FAM WHERE FAMILIES.AGE < 50", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	hj := false
	for _, sg := range st.JoinStages {
		hj = hj || sg.Operator == core.JoinOpHJ
	}
	if !hj {
		t.Fatalf("the join ran %s, want an hj stage", st.Strategy)
	}
	output := false
	for _, c := range db.FeedbackSnapshot() {
		if c.Index == "(hj)" {
			t.Fatalf("the hj stage was learned: %+v", c)
		}
		output = output || c.Index == "(output)"
	}
	if !output {
		t.Fatalf("the join learned no output record: %+v", db.FeedbackSnapshot())
	}
}
