package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
)

// concurrencyDB builds a table whose per-age row counts are known, so
// parallel readers can verify results exactly.
func concurrencyDB(t *testing.T, rows, ages int, opts Options) (*DB, []int) {
	t.Helper()
	db := Open(opts)
	_, err := db.CreateTable("T",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "AGE", Type: expr.TypeInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("T", "AGE_IX", "AGE"); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, ages)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		age := int(rng.Int63n(int64(ages)))
		if err := db.Insert("T", i, age); err != nil {
			t.Fatal(err)
		}
		counts[age]++
	}
	return db, counts
}

// TestParallelQueries drives one prepared statement from many
// goroutines against a sharded pool and checks every result set exactly.
// Run with -race to exercise the concurrency claims of the façade.
func TestParallelQueries(t *testing.T) {
	const (
		rows    = 20000
		ages    = 1000
		workers = 16
		perWkr  = 25
	)
	db, counts := concurrencyDB(t, rows, ages, Options{PoolFrames: 1024, PoolShards: 8})
	point, err := db.PrepareContext(context.Background(), "SELECT * FROM T WHERE AGE = :A")
	if err != nil {
		t.Fatal(err)
	}
	rangeStmt, err := db.PrepareContext(context.Background(), "SELECT ID FROM T WHERE AGE BETWEEN :L AND :H")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWkr; i++ {
				if i%5 == 4 {
					lo := int(rng.Int63n(int64(ages - 20)))
					hi := lo + 19
					res, err := rangeStmt.QueryContext(context.Background(), Binds{"L": lo, "H": hi})
					if err != nil {
						t.Error(err)
						return
					}
					got, err := res.All()
					if err != nil {
						t.Error(err)
						return
					}
					want := 0
					for a := lo; a <= hi; a++ {
						want += counts[a]
					}
					if len(got) != want {
						t.Errorf("range [%d,%d]: got %d rows, want %d", lo, hi, len(got), want)
						return
					}
				} else {
					age := int(rng.Int63n(int64(ages)))
					res, err := point.QueryContext(context.Background(), Binds{"A": age})
					if err != nil {
						t.Error(err)
						return
					}
					got, err := res.All()
					if err != nil {
						t.Error(err)
						return
					}
					if len(got) != counts[age] {
						t.Errorf("age %d: got %d rows, want %d", age, len(got), counts[age])
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// TestParallelInserts checks that concurrent writers to one table
// serialize correctly: every row lands and the index stays consistent.
func TestParallelInserts(t *testing.T) {
	const (
		workers = 8
		perWkr  = 250
	)
	db, _ := concurrencyDB(t, 0, 10, Options{PoolFrames: 512, PoolShards: 4})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perWkr; i++ {
				if err := db.Insert("T", base+i, (base+i)%97); err != nil {
					t.Error(err)
					return
				}
			}
		}(w * perWkr)
	}
	wg.Wait()
	res, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM T", nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if n := all[0][0].I; n != workers*perWkr {
		t.Fatalf("got %d rows after parallel inserts, want %d", n, workers*perWkr)
	}
	// The index must agree with the heap.
	res, err = db.QueryContext(context.Background(), "SELECT * FROM T WHERE AGE = 13", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < workers*perWkr; i++ {
		if i%97 == 13 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("index query got %d rows, want %d", len(rows), want)
	}
}

// TestPerQueryAttributionMatchesPoolDelta is the acceptance check for
// tracker-based attribution: with exactly one query running, the sum of
// its attributed I/O (productive stages + estimation) equals the global
// pool-counter delta — the quantity the old snapshot-differencing code
// reported. The first run warms the optimizer's cluster-ratio cache,
// whose sampling I/O is deliberately unattributed.
func TestPerQueryAttributionMatchesPoolDelta(t *testing.T) {
	db, _ := concurrencyDB(t, 20000, 1000, Options{PoolFrames: 256})
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM T WHERE AGE BETWEEN 100 AND 120")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := stmt.QueryContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.All(); err != nil {
		t.Fatal(err)
	}

	db.Pool().EvictAll()
	db.Pool().ResetStats()
	res, err := stmt.QueryContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	delta := db.Pool().Stats().IOCost()
	attributed := st.IO.IOCost() + st.EstimateIO
	if delta != attributed {
		t.Fatalf("global pool delta %d != attributed %d (stage IO %d + estimate %d); tactic %s",
			delta, attributed, st.IO.IOCost(), st.EstimateIO, st.Tactic)
	}
	if delta == 0 {
		t.Fatal("expected the cold run to perform I/O")
	}
}
