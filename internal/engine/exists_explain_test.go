package engine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"rdbdyn/internal/expr"
)

func TestExistsStatement(t *testing.T) {
	db := newDB(t, 5000)
	res, err := db.QueryContext(context.Background(), "EXISTS(SELECT * FROM FAMILIES WHERE AGE = 42)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Columns(); len(got) != 1 || got[0] != "EXISTS" {
		t.Fatalf("columns = %v", got)
	}
	row, ok, err := res.Next()
	if err != nil || !ok {
		t.Fatalf("Next: %v %v", ok, err)
	}
	if !row[0].Truth() {
		t.Fatal("AGE=42 exists in the fixture")
	}
	if _, ok, _ := res.Next(); ok {
		t.Fatal("EXISTS must yield exactly one row")
	}
	res.Close()

	res2, err := db.QueryContext(context.Background(), "EXISTS(SELECT * FROM FAMILIES WHERE AGE = 4200)", nil)
	if err != nil {
		t.Fatal(err)
	}
	row, _, err = res2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Truth() {
		t.Fatal("AGE=4200 must not exist")
	}
	res2.Close()
}

func TestExistsInfersFastFirst(t *testing.T) {
	db := newDB(t, 100)
	stmt, err := db.PrepareContext(context.Background(), "EXISTS(SELECT * FROM FAMILIES WHERE AGE > 5)")
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.CoreQuery()
	if q.EffectiveGoal().String() != "FAST FIRST" {
		t.Fatalf("EXISTS goal = %v", q.EffectiveGoal())
	}
	if q.Limit != 1 {
		t.Fatalf("EXISTS limit = %d, want 1", q.Limit)
	}
}

func TestExistsIsCheap(t *testing.T) {
	db := newDB(t, 20000)
	db.Pool().EvictAll()
	db.Pool().ResetStats()
	res, err := db.QueryContext(context.Background(), "EXISTS(SELECT * FROM FAMILIES WHERE AGE >= 10)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Catalog().Table("FAMILIES")
	if c := db.Pool().Stats().IOCost(); c > int64(tab.Pages())/4 {
		t.Fatalf("EXISTS over a common predicate cost %d I/Os (pages %d)", c, tab.Pages())
	}
}

func TestExplainStatement(t *testing.T) {
	db := newDB(t, 5000)
	res, err := db.QueryContext(context.Background(), "EXPLAIN SELECT * FROM FAMILIES WHERE AGE = 42", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Columns(); len(got) != 2 || got[0] != "aspect" {
		t.Fatalf("columns = %v", got)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, r := range rows {
		all.WriteString(r[0].S + "=" + r[1].S + "\n")
	}
	out := all.String()
	for _, want := range []string{"goal=TOTAL TIME", "tactic=", "static optimizer would freeze"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	db := newDB(t, 20000)
	db.Pool().EvictAll()
	db.Pool().ResetStats()
	res, err := db.QueryContext(context.Background(), "EXPLAIN SELECT * FROM FAMILIES WHERE AGE >= 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err != nil {
		t.Fatal(err)
	}
	// Only planning I/O (estimation, cluster sampling), no scan.
	tab, _ := db.Catalog().Table("FAMILIES")
	if c := db.Pool().Stats().IOCost(); c > int64(tab.Pages())/4 {
		t.Fatalf("EXPLAIN cost %d I/Os — it must not execute the scan", c)
	}
}

func TestExplainExists(t *testing.T) {
	db := newDB(t, 1000)
	res, err := db.QueryContext(context.Background(), "EXPLAIN EXISTS(SELECT * FROM FAMILIES WHERE AGE = 1)", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil || len(rows) == 0 {
		t.Fatalf("explain exists: %d rows, %v", len(rows), err)
	}
	found := false
	for _, r := range rows {
		if r[0].S == "goal" && r[1].S == "FAST FIRST" {
			found = true
		}
	}
	if !found {
		t.Fatal("EXPLAIN EXISTS must show the fast-first goal")
	}
}

// explainRows drains an EXPLAIN result into aspect=detail strings.
func explainRows(t *testing.T, res *Result) []string {
	t.Helper()
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].S + "=" + r[1].S
	}
	return out
}

func containsAspect(rows []string, prefix string) bool {
	for _, r := range rows {
		if strings.HasPrefix(r, prefix) {
			return true
		}
	}
	return false
}

// TestExplainAnalyzeFlipsStrategyWithBindings is the acceptance test
// for EXPLAIN ANALYZE: the same prepared statement, executed with a
// selective and a non-selective binding, must show different run-time
// behavior in its typed event stream — the selective run completes its
// Jscan, the wide run switches to Tscan mid-flight (experiment T4.A).
func TestExplainAnalyzeFlipsStrategyWithBindings(t *testing.T) {
	db := newDB(t, 20000)
	stmt, err := db.PrepareContext(context.Background(), "EXPLAIN ANALYZE SELECT * FROM FAMILIES WHERE AGE >= :A1")
	if err != nil {
		t.Fatal(err)
	}

	selRes, err := stmt.QueryContext(context.Background(), Binds{"A1": 99})
	if err != nil {
		t.Fatal(err)
	}
	sel := explainRows(t, selRes)
	if !containsAspect(sel, "event:tactic-chosen=") {
		t.Fatalf("selective run missing tactic-chosen event:\n%s", strings.Join(sel, "\n"))
	}
	if containsAspect(sel, "event:strategy-switch=") {
		t.Fatalf("selective run must not switch strategies:\n%s", strings.Join(sel, "\n"))
	}
	if st := selRes.Stats(); !strings.Contains(st.Strategy, "Jscan[AGE_IX]") {
		t.Fatalf("selective strategy = %q, want the index scan to win", st.Strategy)
	}

	wideRes, err := stmt.QueryContext(context.Background(), Binds{"A1": 0})
	if err != nil {
		t.Fatal(err)
	}
	wide := explainRows(t, wideRes)
	if !containsAspect(wide, "event:tactic-chosen=") {
		t.Fatalf("wide run missing tactic-chosen event:\n%s", strings.Join(wide, "\n"))
	}
	if !containsAspect(wide, "event:strategy-switch=") {
		t.Fatalf("wide run must switch to Tscan:\n%s", strings.Join(wide, "\n"))
	}
	st := wideRes.Stats()
	if !strings.Contains(st.Strategy, "Tscan") {
		t.Fatalf("wide strategy = %q, want Tscan", st.Strategy)
	}
	if !containsAspect(wide, "rows=20000") {
		t.Fatalf("ANALYZE must report the delivered row count:\n%s", strings.Join(wide, "\n"))
	}
	for _, aspect := range []string{"strategy=", "attributed I/O=", "estimation I/O="} {
		if !containsAspect(wide, aspect) {
			t.Fatalf("ANALYZE output missing %q:\n%s", aspect, strings.Join(wide, "\n"))
		}
	}

	// The cumulative metrics saw both runs and the mid-flight switch.
	snap := db.Metrics()
	if snap.Queries < 2 || snap.StrategySwitches < 1 {
		t.Fatalf("metrics = %+v, want >=2 queries and >=1 strategy switch", snap)
	}
}

// TestExplainWithoutAnalyzeStaysCheap pins the plain-EXPLAIN contract
// after the ANALYZE addition: no strategy/rows rows, no execution.
func TestExplainWithoutAnalyzeStaysCheap(t *testing.T) {
	db := newDB(t, 5000)
	res, err := db.QueryContext(context.Background(), "EXPLAIN SELECT * FROM FAMILIES WHERE AGE >= 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := explainRows(t, res)
	if containsAspect(rows, "rows=") || containsAspect(rows, "attributed I/O=") {
		t.Fatalf("plain EXPLAIN must not carry ANALYZE rows:\n%s", strings.Join(rows, "\n"))
	}
}

func TestUnionThroughSQL(t *testing.T) {
	db := newDB(t, 10000)
	if _, err := db.CreateIndex("FAMILIES", "ID_IX", "ID"); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), "SELECT ID, AGE FROM FAMILIES WHERE ID < 20 OR AGE = 77", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if !(r[0].I < 20 || r[1].I == 77) {
			t.Fatalf("row %v violates the OR restriction", r)
		}
		key := r[0].String()
		if seen[key] {
			t.Fatalf("duplicate ID %s delivered", key)
		}
		seen[key] = true
	}
	if !strings.Contains(res.Stats().Strategy, "Uscan") {
		t.Fatalf("expected Uscan, got %q", res.Stats().Strategy)
	}
}

// TestUnionLimitMatchesUnlimited: a LIMIT above the row count makes an
// OR retrieval fast-first, which borrows from the union's legs; where
// the disjuncts overlap it must still deliver each row once, exactly the
// rows of the same query without the LIMIT.
func TestUnionLimitMatchesUnlimited(t *testing.T) {
	db := newDB(t, 10000)
	if _, err := db.CreateIndex("FAMILIES", "ID_IX", "ID"); err != nil {
		t.Fatal(err)
	}
	ids := func(src string) ([]int64, *Result) {
		t.Helper()
		res, err := db.QueryContext(context.Background(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(rows))
		for i, r := range rows {
			out[i] = r[0].I
		}
		slices.Sort(out)
		return out, res
	}
	for _, where := range []string{"ID < 30 OR ID < 20", "ID < 20 OR ID < 30", "AGE < 3 OR AGE < 2"} {
		src := "SELECT ID FROM FAMILIES WHERE " + where
		want, _ := ids(src)
		got, res := ids(src + " LIMIT 1000")
		if !slices.Equal(got, want) {
			t.Fatalf("%s: LIMIT 1000 delivered %d rows (tactic %s, strategy %s), without LIMIT %d",
				where, len(got), res.Stats().Tactic, res.Stats().Strategy, len(want))
		}
	}
}

func TestParseExistsErrors(t *testing.T) {
	db := newDB(t, 10)
	for _, src := range []string{
		"EXISTS SELECT * FROM FAMILIES",
		"EXISTS(SELECT * FROM FAMILIES",
		"EXISTS(SELECT COUNT(*) FROM FAMILIES)",
		"EXPLAIN",
	} {
		if _, err := db.PrepareContext(context.Background(), src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestExistsRowValue(t *testing.T) {
	db := newDB(t, 100)
	res, err := db.QueryContext(context.Background(), "EXISTS(SELECT * FROM FAMILIES WHERE ID = 5)", nil)
	if err != nil {
		t.Fatal(err)
	}
	row, ok, err := res.Next()
	if err != nil || !ok || row[0].T != expr.TypeBool {
		t.Fatalf("exists row: %v %v %v", row, ok, err)
	}
}
