package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
)

// memoized returns the statement the DB's memo holds for src, or nil.
func memoized(db *DB, src string) *Stmt {
	db.stmtsMu.Lock()
	defer db.stmtsMu.Unlock()
	return db.stmts[src]
}

// TestStmtMemoCompilesOnce: a repeated text is compiled once, a query
// and each DML kind alike, and each entry point still refuses the other's
// statements.
func TestStmtMemoCompilesOnce(t *testing.T) {
	db := dmlDB(t)
	ctx := context.Background()
	const query = "SELECT COUNT(*) FROM T WHERE ID >= :lo"
	s1, err := db.PrepareContext(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if s2, err := db.PrepareContext(ctx, query); err != nil || s2 != s1 {
		t.Fatalf("second PrepareContext: %p, %v; want the first Stmt %p", s2, err, s1)
	}
	for _, tc := range []struct {
		src   string
		binds Binds
		want  int
	}{
		{"INSERT INTO T VALUES (:id, 'n', 1.0)", Binds{"id": 1}, 1},
		{"INSERT INTO T VALUES (:id, 'n', 1.0)", Binds{"id": 2}, 1},
		{"UPDATE T SET NAME = :name WHERE ID = :id", Binds{"name": "m", "id": 1}, 1},
		{"UPDATE T SET NAME = :name WHERE ID = :id", Binds{"name": "m", "id": 2}, 1},
		{"DELETE FROM T WHERE ID = :id", Binds{"id": 1}, 1},
		{"DELETE FROM T WHERE ID = :id", Binds{"id": 2}, 1},
	} {
		before := memoized(db, tc.src)
		if n, err := db.Exec(tc.src, tc.binds); err != nil || n != tc.want {
			t.Fatalf("%s %v: %d rows, %v", tc.src, tc.binds, n, err)
		}
		after := memoized(db, tc.src)
		if after == nil || (before != nil && before != after) {
			t.Fatalf("%s: memo held %p, then %p", tc.src, before, after)
		}
	}
	if res, err := s1.QueryContext(ctx, Binds{"lo": 0}); err != nil {
		t.Fatal(err)
	} else if rows, err := res.All(); err != nil || rows[0][0].I != 0 {
		t.Fatalf("count after the DML: %v, %v", rows, err)
	}
	if _, err := db.PrepareContext(ctx, "DELETE FROM T WHERE ID = :id"); err == nil {
		t.Fatal("PrepareContext accepted a DELETE")
	}
	if _, err := db.Exec(query, nil); err == nil {
		t.Fatal("Exec accepted a SELECT")
	}
}

// TestStmtMemoFollowsIndexes: a memoized statement carries no access
// path; the optimizer reads the table's indexes on every run, so an index
// created after the text was compiled is used at once, and a dropped one
// is never touched again. Both with the plan cache off and on.
func TestStmtMemoFollowsIndexes(t *testing.T) {
	for _, opts := range []Options{{}, {PlanCache: PlanCacheConfig{Enable: true}}} {
		db := pointDB(t, opts)
		if err := db.DropIndex("FAMILIES", "ID_IX"); err != nil {
			t.Fatal(err)
		}
		const src = "SELECT * FROM FAMILIES WHERE ID = 4242"
		run := func(phase string, uses bool) {
			t.Helper()
			for i := 0; i <= promoteAfter; i++ {
				res, err := db.QueryContext(context.Background(), src, nil)
				if err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
				rows, err := res.All()
				if err != nil || len(rows) != 1 {
					t.Fatalf("%s: %d rows, %v", phase, len(rows), err)
				}
				if got := strings.Contains(res.Stats().Strategy, "ID2_IX"); got != uses {
					t.Fatalf("%s run %d (cache %v): strategy %s", phase, i, opts.PlanCache.Enable, res.Stats().Strategy)
				}
			}
		}
		run("no index", false)
		if _, err := db.CreateIndex("FAMILIES", "ID2_IX", "ID"); err != nil {
			t.Fatal(err)
		}
		run("after CreateIndex", true)
		if err := db.DropIndex("FAMILIES", "ID2_IX"); err != nil {
			t.Fatal(err)
		}
		run("after DropIndex", false)
	}
}

// TestStmtMemoKeepsOnlySuccess: a text that fails to compile is not
// memoized, so it compiles once the table it names exists.
func TestStmtMemoKeepsOnlySuccess(t *testing.T) {
	db := dmlDB(t)
	for _, src := range []string{"SELECT COUNT(*) FROM U", "INSERT INTO U VALUES (1)"} {
		if _, err := db.QueryContext(context.Background(), src, nil); err == nil {
			t.Fatalf("%s compiled before U exists", src)
		}
		if _, err := db.Exec(src, nil); err == nil {
			t.Fatalf("%s ran before U exists", src)
		}
		if s := memoized(db, src); s != nil {
			t.Fatalf("%s: failed compile memoized", src)
		}
	}
	if _, err := db.CreateTable("U", catalog.Column{Name: "ID", Type: expr.TypeInt}); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Exec("INSERT INTO U VALUES (1)", nil); err != nil || n != 1 {
		t.Fatalf("insert after CreateTable: %d, %v", n, err)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM U"); got != 1 {
		t.Fatalf("count after CreateTable = %d", got)
	}
}

// TestStmtMemoHonorsCancelledContext: a cancelled context fails
// DB.QueryContext before any work whether the text is memoized or not.
func TestStmtMemoHonorsCancelledContext(t *testing.T) {
	db := dmlDB(t)
	const src = "SELECT * FROM T"
	if _, err := db.QueryContext(context.Background(), src, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, src := range []string{src, "SELECT ID FROM T"} {
		hit := memoized(db, src) != nil
		if _, err := db.QueryContext(ctx, src, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s (memoized %v): err = %v, want context.Canceled", src, hit, err)
		}
	}
}

// TestStmtMemoQuotedWhitespace: the memo keys on the exact text, so two
// texts that differ only in the whitespace inside a quoted literal are
// two statements with their own answers.
func TestStmtMemoQuotedWhitespace(t *testing.T) {
	db := dmlDB(t)
	if _, err := db.Exec("INSERT INTO T VALUES (1, 'a  b', 0.0), (2, 'a b', 0.0)", nil); err != nil {
		t.Fatal(err)
	}
	ids := map[string]int64{"SELECT ID FROM T WHERE NAME = 'a  b'": 1, "SELECT ID FROM T WHERE NAME = 'a b'": 2}
	for src, want := range ids {
		res, err := db.QueryContext(context.Background(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := res.All(); err != nil || len(rows) != 1 || rows[0][0].I != want {
			t.Fatalf("%s: %v, %v; want ID %d", src, rows, err, want)
		}
	}
	if a, b := memoized(db, "SELECT ID FROM T WHERE NAME = 'a  b'"), memoized(db, "SELECT ID FROM T WHERE NAME = 'a b'"); a == nil || a == b {
		t.Fatalf("memo entries %p and %p", a, b)
	}
}

// TestStmtMemoPastCapacity: past stmtMemoCap distinct texts the memo
// starts over, and queries keep answering correctly.
func TestStmtMemoPastCapacity(t *testing.T) {
	db := dmlDB(t)
	for i := 0; i < 10; i++ {
		if _, err := db.Exec("INSERT INTO T VALUES (:id, 'n', 0.0)", Binds{"id": i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < stmtMemoCap+10; i++ {
		want := int64(10 - min(i, 10))
		if got := countRows(t, db, fmt.Sprintf("SELECT COUNT(*) FROM T WHERE ID >= %d", i)); got != want {
			t.Fatalf("text %d: count %d, want %d", i, got, want)
		}
	}
	db.stmtsMu.Lock()
	n := len(db.stmts)
	db.stmtsMu.Unlock()
	if n > stmtMemoCap {
		t.Fatalf("memo holds %d statements, cap %d", n, stmtMemoCap)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM T WHERE ID >= 0"); got != 10 {
		t.Fatalf("count after the reset = %d, want 10", got)
	}
}

// TestStmtMemoConcurrent: DB.QueryContext and DB.Exec over a handful of
// texts from many goroutines share the memo safely (run with -race).
// Readers query R, which nothing writes; writers insert, update and
// delete their own keys of W.
func TestStmtMemoConcurrent(t *testing.T) {
	db, counts := concurrencyDB(t, 2000, 50, Options{PlanCache: PlanCacheConfig{Enable: true}})
	if _, err := db.CreateTable("W",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "V", Type: expr.TypeInt},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("W", "W_ID_IX", "ID"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				age := (g*7 + i) % 50
				res, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM T WHERE AGE = :a", Binds{"a": age})
				if err != nil {
					t.Error(err)
					return
				}
				if rows, err := res.All(); err != nil || rows[0][0].I != int64(counts[age]) {
					t.Errorf("AGE = %d: %v, %v; want %d", age, rows, err, counts[age])
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id := g*1000 + i
				for _, step := range []struct {
					src   string
					binds Binds
				}{
					{"INSERT INTO W VALUES (:id, 0)", Binds{"id": id}},
					{"UPDATE W SET V = :v WHERE ID = :id", Binds{"v": i, "id": id}},
					{"DELETE FROM W WHERE ID = :id", Binds{"id": id}},
				} {
					if n, err := db.Exec(step.src, step.binds); err != nil || n != 1 {
						t.Errorf("%s %v: %d rows, %v", step.src, step.binds, n, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := countRows(t, db, "SELECT COUNT(*) FROM W"); got != 0 {
		t.Fatalf("W keeps %d rows, want 0", got)
	}
}
