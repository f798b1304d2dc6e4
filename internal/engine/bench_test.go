package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
)

func benchDB(b *testing.B, rows int) *DB {
	return benchDBOpts(b, rows, Options{PoolFrames: 512})
}

func benchDBOpts(b *testing.B, rows int, opts Options) *DB {
	b.Helper()
	db := Open(opts)
	_, err := db.CreateTable("T",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "AGE", Type: expr.TypeInt},
	)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex("T", "AGE_IX", "AGE"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		if err := db.Insert("T", i, int(rng.Int63n(10000))); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkPreparedPointQuery measures the end-to-end per-run cost of
// the dynamic optimizer on a short OLTP-style retrieval: initial-stage
// estimation, tactic choice, and delivery of a handful of rows.
func BenchmarkPreparedPointQuery(b *testing.B) {
	db := benchDB(b, 50000)
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM T WHERE AGE = :A")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := stmt.QueryContext(context.Background(), Binds{"A": int(rng.Int63n(10000))})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.All(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelQuery measures query throughput when many
// goroutines share one DB and one prepared statement — the scenario
// tracker-based attribution exists for. Each
// sub-benchmark splits b.N across a fixed goroutine count so the
// 1-vs-16 ratio reflects scaling, not workload size.
func BenchmarkParallelQuery(b *testing.B) {
	db := benchDBOpts(b, 50000, Options{PoolFrames: 8192})
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM T WHERE AGE = :A")
	if err != nil {
		b.Fatal(err)
	}
	for _, gr := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", gr), func(b *testing.B) {
			errs := make([]error, gr)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < gr; w++ {
				n := b.N / gr
				if w < b.N%gr {
					n++
				}
				wg.Add(1)
				go func(w, n int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					for i := 0; i < n; i++ {
						res, err := stmt.QueryContext(context.Background(), Binds{"A": int(rng.Int63n(10000))})
						if err != nil {
							errs[w] = err
							return
						}
						if _, err := res.All(); err != nil {
							errs[w] = err
							return
						}
					}
				}(w, n)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareOnly measures parse + compile.
func BenchmarkPrepareOnly(b *testing.B) {
	db := benchDB(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PrepareContext(context.Background(), "SELECT ID FROM T WHERE AGE BETWEEN 5 AND 10 ORDER BY AGE LIMIT 3"); err != nil {
			b.Fatal(err)
		}
	}
}
