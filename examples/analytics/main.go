// Analytics example: skewed data and multi-index restrictions — the
// conditions Section 2 says defeat static cost estimation. The CITY
// column is Zipf-distributed, so the same "CITY = :C" predicate matches
// 30% of the table for the hot city and a handful of rows for a cold
// one; the REGION column is correlated with CITY, so intersecting both
// indexes is sometimes useless. The dynamic optimizer sorts it out at
// run time, query by query.
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
		Name: "EVENTS",
		Rows: 100000,
		Columns: []workload.ColumnSpec{
			{Name: "ID", Gen: &workload.Seq{}},
			{Name: "CITY", Gen: &workload.Zipf{S: 1.4, V: 1, N: 2000}},
			{Name: "REGION", Gen: workload.Correlated{Source: 1, Noise: 2}},
			{Name: "DAY", Gen: workload.Uniform{Lo: 0, Hi: 365}},
			{Name: "PAD", Gen: workload.Pad{Len: 40}},
		},
		Indexes: [][]string{{"CITY"}, {"REGION"}, {"DAY"}},
		Seed:    3,
	}
	if _, err := workload.Build(db.Catalog(), spec); err != nil {
		log.Fatal(err)
	}

	stmt, err := db.PrepareContext(context.Background(), "SELECT COUNT(*) FROM EVENTS WHERE CITY = :C")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- Zipf skew: the same predicate, wildly different volumes --")
	for _, c := range []int{0, 1, 50, 1500} {
		db.Pool().EvictAll()
		db.Pool().ResetStats()
		res, err := stmt.QueryContext(context.Background(), engine.Binds{"C": c})
		if err != nil {
			log.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats()
		fmt.Printf("CITY=%5d -> count=%-6s tactic=%-16s strategy=%-35s I/O=%d\n",
			c, rows[0][0], st.Tactic, st.Strategy, db.Pool().Stats().IOCost())
		trace.Take() // this tour prints no trace
	}

	fmt.Println("\n-- correlated conjuncts: the REGION index cannot shrink CITY's RID list --")
	multi, err := db.PrepareContext(context.Background(), "SELECT COUNT(*) FROM EVENTS WHERE CITY = :C AND REGION >= :R1 AND REGION <= :R2 AND DAY < :D")
	if err != nil {
		log.Fatal(err)
	}
	for _, tc := range []struct {
		c, r1, r2, d int
		label        string
	}{
		{42, 40, 44, 365, "wide DAY: useless third index"},
		{42, 40, 44, 30, "narrow DAY: intersection helps"},
		{0, 0, 2, 365, "hot city: sequential wins"},
	} {
		db.Pool().EvictAll()
		db.Pool().ResetStats()
		res, err := multi.QueryContext(context.Background(), engine.Binds{"C": tc.c, "R1": tc.r1, "R2": tc.r2, "D": tc.d})
		if err != nil {
			log.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats()
		fmt.Printf("%-34s count=%-6s strategy=%-42s I/O=%d\n",
			tc.label, rows[0][0], st.Strategy, db.Pool().Stats().IOCost())
		for _, ev := range trace.Take() {
			fmt.Println("    *", ev)
		}
	}
}
