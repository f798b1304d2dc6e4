package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
)

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

// TestAdmissionRejectsWhenSaturated pins the single execution slot with
// an open Result and expects the next arrival to fail fast with
// ErrAdmissionQueueFull (queue depth 0 = no waiting), recorded in the
// metrics; closing the Result frees the slot for the next query.
func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	db := newDBOpts(t, 2000, Options{MaxConcurrentQueries: 1})
	ctx := context.Background()
	res, err := db.QueryContext(ctx, "SELECT * FROM FAMILIES WHERE AGE >= 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.InFlightQueries(); n != 1 {
		t.Fatalf("InFlightQueries = %d, want 1", n)
	}
	if _, err := db.QueryContext(ctx, "SELECT * FROM FAMILIES WHERE AGE >= 50", nil); !errors.Is(err, ErrAdmissionQueueFull) {
		t.Fatalf("second query err = %v, want ErrAdmissionQueueFull", err)
	}
	if m := db.Metrics(); m.AdmissionRejected != 1 {
		t.Fatalf("AdmissionRejected = %d, want 1", m.AdmissionRejected)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.InFlightQueries(); n != 0 {
		t.Fatalf("InFlightQueries after Close = %d, want 0", n)
	}
	res2, err := db.QueryContext(ctx, "SELECT * FROM FAMILIES WHERE AGE >= 50", nil)
	if err != nil {
		t.Fatalf("query after slot release: %v", err)
	}
	if _, err := res2.All(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionQueueTimeout joins the wait queue and expects
// ErrAdmissionTimeout after the configured wait, while a context that
// expires first surfaces as a plain deadline (not an admission
// rejection).
func TestAdmissionQueueTimeout(t *testing.T) {
	db := newDBOpts(t, 2000, Options{
		MaxConcurrentQueries: 1,
		AdmissionQueueDepth:  4,
		AdmissionTimeout:     20 * time.Millisecond,
	})
	ctx := context.Background()
	res, err := db.QueryContext(ctx, "SELECT * FROM FAMILIES WHERE AGE >= 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if _, err := db.QueryContext(ctx, "SELECT * FROM FAMILIES WHERE AGE >= 50", nil); !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("queued query err = %v, want ErrAdmissionTimeout", err)
	}
	if m := db.Metrics(); m.AdmissionRejected != 1 {
		t.Fatalf("AdmissionRejected = %d, want 1", m.AdmissionRejected)
	}
	// A context deadline shorter than the admission timeout wins and is
	// not an admission rejection.
	shortCtx, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	db2 := newDBOpts(t, 10, Options{
		MaxConcurrentQueries: 1,
		AdmissionQueueDepth:  4,
		AdmissionTimeout:     10 * time.Second,
	})
	res2, err := db2.QueryContext(ctx, "SELECT * FROM FAMILIES WHERE AGE >= 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Close()
	if _, err := db2.QueryContext(shortCtx, "SELECT * FROM FAMILIES WHERE AGE >= 0", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx-bounded wait err = %v, want context.DeadlineExceeded", err)
	}
	if m := db2.Metrics(); m.AdmissionRejected != 0 {
		t.Fatalf("context expiry counted as admission rejection: %+v", m)
	}
}

// TestAdmissionUnderConcurrency hammers a limit-4 database with 32
// goroutines (run under -race in CI) and asserts the in-flight count
// never exceeds the limit, every waiter either runs or fails with an
// admission error, and no slot leaks.
func TestAdmissionUnderConcurrency(t *testing.T) {
	const (
		limit      = 4
		goroutines = 32
	)
	db := newDBOpts(t, 5000, Options{
		MaxConcurrentQueries: limit,
		AdmissionQueueDepth:  goroutines,
		AdmissionTimeout:     30 * time.Second,
	})
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM FAMILIES WHERE AGE >= :A1")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg         sync.WaitGroup
		completed  atomic.Int64
		rejected   atomic.Int64
		violations atomic.Int64
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := stmt.QueryContext(context.Background(), Binds{"A1": int64(g % 90)})
			if err != nil {
				if errors.Is(err, ErrAdmissionQueueFull) || errors.Is(err, ErrAdmissionTimeout) {
					rejected.Add(1)
					return
				}
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			for {
				if n := db.InFlightQueries(); n > limit {
					violations.Add(1)
				}
				_, ok, err := res.Next()
				if err != nil {
					t.Errorf("goroutine %d: Next: %v", g, err)
					break
				}
				if !ok {
					break
				}
			}
			if err := res.Close(); err != nil {
				t.Errorf("goroutine %d: Close: %v", g, err)
				return
			}
			completed.Add(1)
		}(g)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("in-flight exceeded the limit %d times", v)
	}
	if completed.Load()+rejected.Load() != goroutines {
		t.Fatalf("accounted for %d of %d goroutines", completed.Load()+rejected.Load(), goroutines)
	}
	if n := db.InFlightQueries(); n != 0 {
		t.Fatalf("InFlightQueries after drain = %d, want 0", n)
	}
	if n := db.Pool().PinnedPages(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
}

// TestResultCloseIdempotent closes a Result repeatedly: the slot must
// be released exactly once (a double release would either underflow
// the in-flight count or block draining an empty semaphore).
func TestResultCloseIdempotent(t *testing.T) {
	db := newDBOpts(t, 500, Options{MaxConcurrentQueries: 1})
	res, err := db.QueryContext(context.Background(), "SELECT * FROM FAMILIES WHERE AGE >= 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := res.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if n := db.InFlightQueries(); n != 0 {
		t.Fatalf("InFlightQueries = %d, want 0", n)
	}
	// The slot is genuinely free: the next query admits immediately.
	res2, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM FAMILIES", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res2.All(); err != nil {
		t.Fatal(err)
	}
}

// TestAllErrorPathReleasesSlot fails a query mid-drain (budget
// exhaustion inside All, which closes internally) and then closes
// again by hand: one slot release, zero leaked pins, budget counted.
func TestAllErrorPathReleasesSlot(t *testing.T) {
	db := newDBOpts(t, 5000, Options{MaxConcurrentQueries: 1})
	db.Pool().EvictAll() // budgets meter pool misses; start cold
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
	if n := db.InFlightQueries(); n != 0 {
		t.Fatalf("InFlightQueries = %d, want 0", n)
	}
	if n := db.Pool().PinnedPages(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
	if m := db.Metrics(); m.QueriesBudgetExceeded != 1 {
		t.Fatalf("QueriesBudgetExceeded = %d, want 1: %+v", m.QueriesBudgetExceeded, m)
	}
}

// TestExplainAnalyzeAbandonedReleasesSlot covers the rows==nil Result
// shape: an EXPLAIN ANALYZE result abandoned after partial reads must
// still release its admission slot on (repeated) Close.
func TestExplainAnalyzeAbandonedReleasesSlot(t *testing.T) {
	db := newDBOpts(t, 1000, Options{MaxConcurrentQueries: 1})
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
	if n := db.InFlightQueries(); n != 0 {
		t.Fatalf("InFlightQueries = %d, want 0", n)
	}
	res2, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM FAMILIES", nil)
	if err != nil {
		t.Fatalf("slot not released by explain result: %v", err)
	}
	res2.Close()
}

// TestQueryContextCancelMidStream cancels between Next calls at the
// engine surface: the error must be context.Canceled, the cancellation
// must be visible in the metrics and the typed event stream, and no
// pin may survive Close.
func TestQueryContextCancelMidStream(t *testing.T) {
	db := newDBOpts(t, 20000, Options{})
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
	st := res.Stats()
	found := false
	for _, ev := range st.Events {
		if ev.Kind == core.EvQueryCancelled {
			found = true
		}
	}
	if !found {
		t.Fatalf("no query-cancelled event; trace: %v", st.Trace())
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.Pool().PinnedPages(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
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
