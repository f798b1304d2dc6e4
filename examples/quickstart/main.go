// Quickstart: create a table, index it, load rows, and run the same
// prepared query under the dynamic optimizer with two very different
// host-variable values — the paper's Section 4 example.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/expr"
)

func main() {
	db := engine.Open(engine.Options{PoolFrames: 512})

	if _, err := db.CreateTable("FAMILIES",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "AGE", Type: expr.TypeInt},
		catalog.Column{Name: "NAME", Type: expr.TypeString},
	); err != nil {
		log.Fatal(err)
	}
	if _, err := db.CreateIndex("FAMILIES", "AGE_IX", "AGE"); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		if err := db.Insert("FAMILIES", i, int(rng.Int63n(200)), fmt.Sprintf("family-%05d", i)); err != nil {
			log.Fatal(err)
		}
	}

	// The paper: "select * from FAMILIES where AGE >= :A1" with :A1
	// taking values 0 and 200, delivering all or no records in two
	// different runs. A correct choice between the sequential and index
	// strategies can only be done dynamically on a per-run basis.
	stmt, err := db.PrepareContext(context.Background(), "SELECT ID, AGE FROM FAMILIES WHERE AGE >= :A1")
	if err != nil {
		log.Fatal(err)
	}
	for _, a1 := range []int{198, 0, 200} {
		db.Pool().EvictAll()
		db.Pool().ResetStats()
		res, err := stmt.QueryContext(context.Background(), engine.Binds{"A1": a1})
		if err != nil {
			log.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats()
		fmt.Printf("A1=%3d -> %5d rows, tactic=%-15s strategy=%-40s I/O=%d\n",
			a1, len(rows), st.Tactic, st.Strategy, db.Pool().Stats().IOCost())
	}
	fmt.Println("\nthe same prepared statement chose different strategies per run — no plan was frozen.")
}
