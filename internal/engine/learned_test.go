package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestClusterSampleFollowsTheLoad: the cluster ratio a plan rests on is
// learned from the data the table holds now, not from the data it held
// when first queried. Two databases take the same load on 64 frames —
// 40 rows in ID order, then 39 960 in shuffled order — and the second
// also answers the query once after the first 40 rows, when its ID
// index is perfectly clustered. Once both are loaded, both must choose
// the same strategy: the 40-row sample went stale with the load. The
// rows are fat (~19 a page) and the range is 40 % of them, so a sample
// of the shuffled table reads 0 on every seed, whichever draws it gets,
// and it is a table scan either way.
func TestClusterSampleFollowsTheLoad(t *testing.T) {
	const n, early = 40000, 40
	const src = "SELECT * FROM T WHERE ID >= 100000 AND ID < 116000"
	order := rand.New(rand.NewSource(5)).Perm(n - early)
	pad := strings.Repeat("p", 400)
	strategy := func(db *DB) string {
		t.Helper()
		_, st := runShape(t, db, cacheShape{name: "id-range", src: src})
		return st.Strategy
	}
	load := func(queryEarly bool) string {
		db := Open(Options{PoolFrames: 64})
		declare(t, db, [][]string{{"T", "ID", "G", "PAD"}}, nil)
		if _, err := db.CreateIndex("T", "ID_IX", "ID"); err != nil {
			t.Fatal(err)
		}
		insert := func(i int) {
			if err := db.Insert("T", 100000+i, i%7, pad); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < early; i++ {
			insert(i)
		}
		if queryEarly {
			strategy(db)
		}
		for _, i := range order {
			insert(early + i)
		}
		db.Pool().EvictAll()
		return strategy(db)
	}
	fresh, learnedEarly := load(false), load(true)
	if fresh != learnedEarly {
		t.Fatalf("the fresh database runs %s, the one queried at 40 rows %s", fresh, learnedEarly)
	}
}

// TestNoLearnedFactSurvivesSchemaChange: a correction learned for index
// X on column A must not steer estimates for a new index X on column B.
// Twin databases run the same statements — three learning runs, a drop
// and re-create of X on another column, then an EXPLAIN — one with
// feedback on and one with it off; after the schema change the one with
// feedback holds no correction, and its EXPLAIN matches the uncorrected
// twin's row for row.
func TestNoLearnedFactSurvivesSchemaChange(t *testing.T) {
	explain := func(feedback bool) string {
		db := Open(Options{EnableFeedback: feedback})
		declare(t, db, [][]string{{"T", "ID", "A", "B", "PAD"}}, nil)
		if _, err := db.CreateIndex("T", "X", "A"); err != nil {
			t.Fatal(err)
		}
		// A quarter of the rows crowd A's range [3, 8], which the B-tree
		// estimate overshoots: the learning runs correct X by ~0.89.
		rng, pad := rand.New(rand.NewSource(3)), strings.Repeat("p", 100)
		for i := 0; i < 20000; i++ {
			a := rng.Int63n(1000)
			if rng.Intn(4) == 0 {
				a = 3 + rng.Int63n(6)
			}
			if err := db.Insert("T", i, int(a), int(rng.Int63n(100)), pad); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			runShape(t, db, cacheShape{name: "learn", src: "SELECT * FROM T WHERE A >= 3 AND A <= 8"})
		}
		if feedback && len(db.FeedbackSnapshot()) == 0 {
			t.Fatal("the learning runs learned nothing")
		}
		if err := db.DropIndex("T", "X"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateIndex("T", "X", "B"); err != nil {
			t.Fatal(err)
		}
		if s := db.FeedbackSnapshot(); len(s) != 0 {
			t.Fatalf("after the schema change the snapshot still holds %+v", s)
		}
		rows, _ := runShape(t, db, cacheShape{name: "explain", src: "EXPLAIN SELECT * FROM T WHERE B <= 3"})
		var out strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&out, "%s = %s\n", r[0].S, r[1].S)
		}
		return out.String()
	}
	on, off := explain(true), explain(false)
	if on != off {
		t.Fatalf("EXPLAIN with a learned history:\n%s\nuncorrected:\n%s", on, off)
	}
}
