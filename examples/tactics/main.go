// Tactics tour: drives each of the paper's four competition tactics
// (Section 7) and prints the executor's decision trace so the
// foreground/background choreography is visible.
package main

import (
	"context"
	"fmt"
	"log"

	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/workload"
)

func main() {
	// Every retrieval's decision trace lands in trace, drained per
	// statement.
	trace := &core.TraceLog{}
	db := engine.Open(engine.Options{PoolFrames: 512, Optimizer: core.Config{Trace: trace}})
	spec := workload.TableSpec{
		Name: "T",
		Rows: 60000,
		Columns: []workload.ColumnSpec{
			{Name: "A", Gen: workload.Uniform{Lo: 0, Hi: 10000}},
			{Name: "B", Gen: workload.Uniform{Lo: 0, Hi: 10000}},
			{Name: "PAD", Gen: workload.Pad{Len: 50}},
		},
		Indexes: [][]string{{"A"}, {"B"}, {"A", "B"}},
		Seed:    5,
	}
	if _, err := workload.Build(db.Catalog(), spec); err != nil {
		log.Fatal(err)
	}

	show := func(title, src string, limit int) {
		fmt.Printf("\n=== %s ===\n%s\n", title, src)
		db.Pool().EvictAll()
		db.Pool().ResetStats()
		res, err := db.QueryContext(context.Background(), src, nil)
		if err != nil {
			log.Fatal(err)
		}
		count := 0
		for {
			_, ok, err := res.Next()
			if err != nil {
				log.Fatal(err)
			}
			if !ok {
				break
			}
			count++
			if limit > 0 && count >= limit {
				break
			}
		}
		if err := res.Close(); err != nil {
			log.Fatal(err)
		}
		st := res.Stats()
		fmt.Printf("tactic=%s strategy=%s rows=%d I/O=%d\n",
			st.Tactic, st.Strategy, count, db.Pool().Stats().IOCost())
		for _, ev := range trace.Take() {
			fmt.Println("  *", ev)
		}
	}

	// Background-only: total time over fetch-needed indexes.
	show("background-only (Section 7)",
		"SELECT * FROM T WHERE A < 300 AND B < 4000 OPTIMIZE FOR TOTAL TIME", 0)

	// Fast-first: the foreground borrows RIDs from Jscan and the caller
	// stops after a handful of rows.
	show("fast-first, early termination",
		"SELECT * FROM T WHERE A < 300 OPTIMIZE FOR FAST FIRST", 5)

	// Fast-first drained to the end: the background finishes the job.
	show("fast-first, drained to the end",
		"SELECT * FROM T WHERE A < 300 OPTIMIZE FOR FAST FIRST", 0)

	// Sorted: an order-delivering Fscan cooperating with a
	// filter-producing Jscan.
	show("sorted tactic",
		"SELECT * FROM T WHERE A >= 0 AND B < 200 ORDER BY A OPTIMIZE FOR FAST FIRST", 0)

	// Index-only: the covering A+B index races the B index's Jscan.
	show("index-only tactic",
		"SELECT A, B FROM T WHERE A < 9000 AND B < 50 OPTIMIZE FOR TOTAL TIME", 0)

	// And the degenerate static cases for contrast.
	show("statically clear: no useful index -> Tscan",
		"SELECT * FROM T WHERE PAD = 'nope'", 0)
	show("statically clear: lone covering index -> Sscan",
		"SELECT A, B FROM T WHERE A < 100", 0)
}
