package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
)

// frozenFixture builds a small two-index table for the FrozenStmt
// staleness tests.
func frozenFixture(t *testing.T, rows int, opts ...Options) *DB {
	t.Helper()
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	db := Open(o)
	if _, err := db.CreateTable("F",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "AGE", Type: expr.TypeInt},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 64)
	for i := 0; i < rows; i++ {
		if err := db.Insert("F", i, (i*37)%1000, pad); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range [][2]string{{"AGE_IX", "AGE"}, {"ID_IX", "ID"}} {
		if _, err := db.CreateIndex("F", ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func frozenCount(t *testing.T, f *FrozenStmt, binds Binds) int {
	t.Helper()
	res, err := f.QueryContext(context.Background(), binds)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// Regression: a FrozenStmt used to hold its plan forever, replaying
// against indexes that no longer existed. Now a schema change
// re-prepares the plan (with the original sniffed bindings) on the next
// Query, and an unchanged table re-prepares nothing.
func TestFrozenStmtRefreshesOnIndexDrop(t *testing.T) {
	db := frozenFixture(t, 2000)
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM F WHERE AGE >= :a")
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := stmt.Freeze(Binds{"a": 995})
	if err != nil {
		t.Fatal(err)
	}
	before := frozen.Plan
	if !strings.Contains(before.String(), "AGE_IX") {
		t.Fatalf("sniffed selective plan does not use AGE_IX: %s", before)
	}
	want := frozenCount(t, frozen, Binds{"a": 995})
	if frozen.Plan != before {
		t.Fatal("query against an unchanged table re-prepared the plan")
	}

	if err := db.DropIndex("F", "AGE_IX"); err != nil {
		t.Fatal(err)
	}
	if got := frozenCount(t, frozen, Binds{"a": 995}); got != want {
		t.Fatalf("post-drop frozen query: %d rows, want %d", got, want)
	}
	if frozen.Plan == before {
		t.Fatal("plan not re-prepared after index drop")
	}
	if strings.Contains(frozen.Plan.String(), "AGE_IX") {
		t.Fatalf("refreshed plan still references dropped AGE_IX: %s", frozen.Plan)
	}
}

func TestFrozenStmtRefreshesOnStatsDrift(t *testing.T) {
	db := frozenFixture(t, 100)
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM F WHERE AGE >= :a")
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := stmt.Freeze(Binds{"a": 990})
	if err != nil {
		t.Fatal(err)
	}
	before := frozen.Plan
	frozenCount(t, frozen, Binds{"a": 990})
	if frozen.Plan != before {
		t.Fatal("unchanged table re-prepared the plan")
	}
	// 100 rows at freeze -> threshold max(32, 20) = 32 mutations.
	for i := 0; i < 33; i++ {
		if err := db.Insert("F", 10000+i, 999, "p"); err != nil {
			t.Fatal(err)
		}
	}
	if got := frozenCount(t, frozen, Binds{"a": 990}); got < 33 {
		t.Fatalf("post-drift frozen query: %d rows, want >= 33", got)
	}
	if frozen.Plan == before {
		t.Fatal("plan not re-prepared after stats drift")
	}
}

// Regression (-race): Freeze estimates by descending live B-trees; a
// concurrent Insert splitting a page mid-descent raced with it. The
// whole estimation now runs under the table's read-lock.
func TestFreezeRaceWithConcurrentInserts(t *testing.T) {
	db := frozenFixture(t, 500)
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM F WHERE AGE >= :a")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Insert("F", 100000+i, (i*13)%1000, "p"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := stmt.Freeze(Binds{"a": 900}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// Concurrent Stmt.QueryContext traffic through the plan cache must be safe:
// promotions, hits, and demotions may interleave arbitrarily but the
// results must always be correct. Run under -race.
func TestPlanCacheConcurrentQueries(t *testing.T) {
	db := frozenFixture(t, 2000, Options{
		EnableFeedback: true,
		PlanCache:      PlanCacheConfig{Enable: true},
	})
	if _, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM F", nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lo := (g*7 + i*13) % 1000
				res, err := db.QueryContext(context.Background(), "SELECT * FROM F WHERE AGE >= :a", Binds{"a": lo})
				if err != nil {
					t.Error(err)
					return
				}
				rows, err := res.All()
				if err != nil {
					t.Error(err)
					return
				}
				want := 0
				for r := 0; r < 2000; r++ {
					if (r*37)%1000 >= lo {
						want++
					}
				}
				if len(rows) != want {
					t.Errorf("AGE >= %d: %d rows, want %d", lo, len(rows), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := recoverMetrics(db); err != nil {
		t.Fatal(err)
	}
}

// recoverMetrics sanity-checks that the metrics snapshot is readable
// after concurrent load.
func recoverMetrics(db *DB) error {
	m := db.Metrics()
	if m.Queries <= 0 {
		return fmt.Errorf("no queries recorded")
	}
	return nil
}

// Regression: FrozenStmt used to execute on a private default-configured
// runner outside the DB's optimizer, so a frozen query was invisible to
// DB.Metrics (no query counted, no cancellation recorded) and to the
// DB-wide trace sink. It now replays through the DB's optimizer like
// the plan cache does.
func TestFrozenStmtRunsOnTheDBOptimizer(t *testing.T) {
	sink := &core.TraceLog{}
	db := frozenFixture(t, 2000, Options{Optimizer: core.Config{Trace: sink}})
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM F WHERE AGE >= :a")
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := stmt.Freeze(Binds{"a": 995})
	if err != nil {
		t.Fatal(err)
	}
	tactic := frozen.Plan.Strategy.Tactic

	before := db.Metrics()
	res, err := frozen.QueryContext(context.Background(), Binds{"a": 990})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	after := db.Metrics()
	if got := after.Queries - before.Queries; got != 1 {
		t.Fatalf("frozen query moved Metrics.Queries by %d, want 1", got)
	}
	if got := after.TacticWins[tactic] - before.TacticWins[tactic]; got != 1 {
		t.Fatalf("frozen %s query moved its tactic win count by %d, want 1", tactic, got)
	}
	n := 0
	for _, ev := range sink.Take() {
		if ev.QueryID == st.QueryID {
			if ev.Seq != n {
				t.Fatalf("DB-wide trace sink saw event Seq %d of the frozen query as its %dth", ev.Seq, n)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("DB-wide trace sink saw none of the frozen query's events")
	}

	// A frozen query unwound by its budget is a recorded cancellation.
	db.Pool().EvictAll()
	before = db.Metrics()
	res, err = frozen.QueryContext(core.WithIOBudget(context.Background(), 2), Binds{"a": 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	after = db.Metrics()
	if got := after.QueriesBudgetExceeded - before.QueriesBudgetExceeded; got != 1 {
		t.Fatalf("budget-exceeded frozen query moved the cancellation counter by %d, want 1", got)
	}
	if n := db.Pool().PinnedPages(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
}
