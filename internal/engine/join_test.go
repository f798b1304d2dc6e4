package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
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
	res, err := db.Query(
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
	cres, err := db.Query("SELECT ID FROM CUST WHERE SEG = 0", nil)
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
	ores, err := db.Query("SELECT CUST, QTY FROM ORD WHERE QTY >= 5", nil)
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
	res, err := db.Query("SELECT COUNT(*) FROM CUST JOIN ORD ON CUST.ID = ORD.CUST", nil)
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
	res, err := db.Query(
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
	res, err := db.Query("EXPLAIN SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST", nil)
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
	stmt, err := db.Prepare("EXPLAIN SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE ORD.CUST < 200")
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
	db := newJoinDB(t, 100, 400, Options{PlanCache: PlanCacheConfig{Enable: true, PromoteAfter: 2}})
	stmt, err := db.Prepare("SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE SEG = 0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := stmt.Query(nil)
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
	if m.JoinQueries != 5 || m.PlanCaptureRejected < 5 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.JoinOrdersChosen != 5 {
		t.Fatalf("join orders chosen = %d", m.JoinOrdersChosen)
	}

	// The same DB still promotes single-table shapes.
	single, err := db.Prepare("SELECT * FROM CUST WHERE ID >= 90")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res, err := single.Query(nil)
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
	stmt, err := db.Prepare("SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST")
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
	res, err := db.Query("SELECT a.ID, b.NAME FROM CUST a JOIN CUST AS b ON a.ID = b.ID WHERE a.SEG = 0", nil)
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
	cres, err := db.Query("SELECT COUNT(*) FROM CUST WHERE SEG = 0", nil)
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
	if _, err := db.Query("SELECT * FROM CUST JOIN CUST ON CUST.ID = CUST.SEG", nil); err == nil ||
		!strings.Contains(err.Error(), "alias") {
		t.Fatalf("unaliased self-join error = %v", err)
	}
}

// TestEngineJoinPicksHashJoin joins on columns with no usable probe
// index: the per-stage competition must run an hj stage and count it.
func TestEngineJoinPicksHashJoin(t *testing.T) {
	db := newJoinDB(t, 60, 200, Options{})
	res, err := db.Query("SELECT CUST.ID, ORD.ID FROM CUST JOIN ORD ON CUST.SEG = ORD.QTY", nil)
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

// newSortAvoidDB builds the fat-table schema whose cheapest ORDER BY
// plan is order-preserving (see core's sortAvoidFixture).
func newSortAvoidDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db := Open(opts)
	if _, err := db.CreateTable("CUST",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "SEG", Type: expr.TypeInt},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("ORD",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "CUST", Type: expr.TypeInt},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	); err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][3]string{{"CUST", "CUST_ID_IX", "ID"}, {"ORD", "ORD_CUST_IX", "CUST"}} {
		if _, err := db.CreateIndex(ix[0], ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	pad := strings.Repeat("p", 400)
	for i := 0; i < 300; i++ {
		if err := db.Insert("CUST", i, i%5, pad); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 900; i++ {
		if err := db.Insert("ORD", i, int(rng.Int63n(300)), pad); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestEngineJoinOrderBySortAvoided runs an ORDER BY join through SQL on
// twin databases, one with sort avoidance disabled: the aware run must
// skip the materialized sort and deliver the baseline's rows in the
// same order.
func TestEngineJoinOrderBySortAvoided(t *testing.T) {
	src := "SELECT CUST.ID, ORD.ID FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE CUST.ID < 12 ORDER BY CUST.ID"
	aware := newSortAvoidDB(t, Options{})
	base := newSortAvoidDB(t, Options{Optimizer: core.Config{DisableJoinSortAvoidance: true}})
	ares, err := aware.Query(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	arows, err := ares.All()
	if err != nil {
		t.Fatal(err)
	}
	bres, err := base.Query(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	brows, err := bres.All()
	if err != nil {
		t.Fatal(err)
	}
	if !ares.Stats().SortAvoided {
		t.Fatalf("aware run sorted anyway: %s", ares.Stats().Strategy)
	}
	if bres.Stats().SortAvoided {
		t.Fatal("baseline avoided the sort with avoidance disabled")
	}
	if len(arows) == 0 || len(arows) != len(brows) {
		t.Fatalf("aware %d rows, baseline %d", len(arows), len(brows))
	}
	for i := range arows {
		for c := range arows[i] {
			if expr.Compare(arows[i][c], brows[i][c]) != 0 {
				t.Fatalf("row %d differs: %v vs %v", i, arows[i], brows[i])
			}
		}
	}
	if m := aware.Metrics(); m.JoinSortsAvoided == 0 {
		t.Fatalf("sorts-avoided metric = %+v", m)
	}
}

// TestEngineJoinFeedbackLoop runs the same join twice with feedback on:
// the second run's driver estimate must be corrected by the first run's
// observed actuals.
func TestEngineJoinFeedbackLoop(t *testing.T) {
	db := newJoinDB(t, 200, 800, Options{EnableFeedback: true})
	src := "SELECT * FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE SEG = 0"
	for i := 0; i < 2; i++ {
		res, err := db.Query(src, nil)
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
