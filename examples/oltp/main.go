// OLTP example: the short-transaction behaviors the paper's Section 5
// optimizes for. Point lookups shortcut the initial estimation the
// moment a very short range is discovered, empty ranges deliver "end of
// data" without touching any productive stage, and LIMIT queries get
// the fast-first goal automatically.
package main

import (
	"context"
	"fmt"
	"log"

	"rdbdyn/internal/engine"
	"rdbdyn/internal/workload"
)

func main() {
	db := engine.Open(engine.Options{PoolFrames: 512})
	spec := workload.TableSpec{
		Name: "ORDERS",
		Rows: 80000,
		Columns: []workload.ColumnSpec{
			{Name: "ORDER_ID", Gen: &workload.Seq{}},
			{Name: "CUSTOMER", Gen: workload.Uniform{Lo: 0, Hi: 20000}},
			{Name: "STATUS", Gen: workload.Uniform{Lo: 0, Hi: 5}},
			{Name: "AMOUNT", Gen: workload.UniformFloat{Lo: 1, Hi: 5000}},
		},
		Indexes: [][]string{{"ORDER_ID"}, {"CUSTOMER"}},
		Seed:    7,
	}
	if _, err := workload.Build(db.Catalog(), spec); err != nil {
		log.Fatal(err)
	}

	run := func(label, src string, binds engine.Binds) {
		db.Pool().ResetStats()
		res, err := db.QueryContext(context.Background(), src, binds)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats()
		fmt.Printf("%-28s %5d rows  tactic=%-13s estI/O=%-3d total pool I/O=%d\n",
			label, len(rows), st.Tactic, st.EstimateIO, db.Pool().Stats().IOCost())
	}

	// Point lookup: the initial stage discovers a 1-RID range on the
	// first index probe and terminates estimation immediately.
	run("point lookup", "SELECT * FROM ORDERS WHERE ORDER_ID = :ID", engine.Binds{"ID": 41234})

	// Empty range: "end of data" at once, no retrieval stages run.
	run("empty range", "SELECT * FROM ORDERS WHERE ORDER_ID = :ID", engine.Binds{"ID": 999999999})

	// Customer history with LIMIT: fast-first goal inferred from the
	// controlling LIMIT node.
	run("recent orders (LIMIT 5)",
		"SELECT ORDER_ID, AMOUNT FROM ORDERS WHERE CUSTOMER = :C LIMIT TO 5 ROWS",
		engine.Binds{"C": 777})

	// A contradictory restriction is proven empty syntactically.
	run("contradiction", "SELECT * FROM ORDERS WHERE ORDER_ID > 10 AND ORDER_ID < 5", nil)

	// Repeated short transactions: the winning index order is reused as
	// the next run's starting point (watch estimation I/O stay tiny).
	for i := 0; i < 3; i++ {
		run(fmt.Sprintf("hot path, run %d", i+1),
			"SELECT * FROM ORDERS WHERE CUSTOMER = :C AND ORDER_ID >= :LO",
			engine.Binds{"C": 123, "LO": 100})
	}
}
