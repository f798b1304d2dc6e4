// Joins: a multi-table retrieval under the dynamic optimizer. The
// local restriction on CUST is unsargable, so planning falls back to
// the classic 10% guess — but SEG = 0 really covers 60% of the table.
// The greedy plan sizes an index-nested-loop probe for ~20 outer rows,
// meets ~120 at the first stage boundary, re-plans the remaining
// stages mid-flight, and finishes on a hash join: the build scan costs
// what a nested loop's would, but the probe phase is linear.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/expr"
)

func main() {
	db := engine.Open(engine.Options{PoolFrames: 128})

	if _, err := db.CreateTable("CUST",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "SEG", Type: expr.TypeInt},
		catalog.Column{Name: "NAME", Type: expr.TypeString},
	); err != nil {
		log.Fatal(err)
	}
	if _, err := db.CreateTable("ORD",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "CUST", Type: expr.TypeInt},
		catalog.Column{Name: "QTY", Type: expr.TypeInt},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	); err != nil {
		log.Fatal(err)
	}
	if _, err := db.CreateIndex("ORD", "ORD_CUST_IX", "CUST"); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		seg := int(rng.Int63n(10)) // 60% of customers sit in segment 0
		if seg < 6 {
			seg = 0
		}
		if err := db.Insert("CUST", i, seg, fmt.Sprintf("c%03d", i)); err != nil {
			log.Fatal(err)
		}
	}
	pad := strings.Repeat("x", 400)
	for i := 0; i < 3000; i++ {
		if err := db.Insert("ORD", i, int(rng.Int63n(200)), 1+int(rng.Int63n(9)), pad); err != nil {
			log.Fatal(err)
		}
	}

	const q = "SELECT CUST.NAME, ORD.QTY FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE SEG = 0"

	res, err := db.QueryContext(context.Background(), "EXPLAIN ANALYZE "+q, nil)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EXPLAIN ANALYZE", q)
	for _, r := range rows {
		fmt.Printf("  %-28s %s\n", r[0].S, r[1].S)
	}

	res, err = db.QueryContext(context.Background(), q, nil)
	if err != nil {
		log.Fatal(err)
	}
	all, err := res.All()
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats()
	fmt.Printf("\n%d rows via %s (attributed I/O %d)\n", len(all), st.Strategy, st.IO.IOCost())
	m := db.Metrics()
	fmt.Printf("metrics: %d join queries, %d re-optimizations\n", m.JoinQueries, m.JoinReoptimizations)
}
