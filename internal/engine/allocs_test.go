package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
)

// raceEnabled is set by raceon_test.go when the race detector is on.
var raceEnabled bool

// TestAllocsMatchingRIDsRejectedRows: the DML victim retrieval needs no
// row at all — over rows its restriction rejects (no index bounds it, so
// a Tscan decides every record) it allocates a constant amount (the
// retrieval, its filter, column set, scratch view, cursor and trace),
// nothing per row.
func TestAllocsMatchingRIDsRejectedRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	db := dmlDB(t)
	const rows = 3000
	for i := 0; i < rows; i++ {
		if err := db.Insert("T", i, fmt.Sprintf("name-%d", i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := db.cat.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	// NAME is read (a string), nothing passes.
	none := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col(1, "NAME"), expr.Lit(expr.Str("name-"))),
		expr.NewCmp(expr.LT, expr.Col(2, "SCORE"), expr.Var("LO")),
	)
	binds := expr.Bindings{"LO": expr.Float(0)}
	if n := testing.AllocsPerRun(5, func() {
		if victims, err := db.victims(tab, none, binds); err != nil || len(victims) != 0 {
			t.Fatal(len(victims), err)
		}
	}); n > 40 {
		t.Fatalf("victims over %d rejected rows: %v allocations, want a constant few", rows, n)
	}
	// Deciding on the record still validates all of it.
	if _, err := tab.Heap.Insert(append(expr.EncodeRow(expr.Row{expr.Int(-1), expr.Str("x"), expr.Float(0)}), 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.victims(tab, none, binds); !errors.Is(err, expr.ErrCorruptRecord) {
		t.Fatalf("corrupt record behind a rejecting restriction: %v", err)
	}
}

// TestAllocsScanDeliveredRows: a delivered row is carved from a shared
// slab, not allocated — a drained 10k-row table scan and a 10k-entry self-sufficient index scan
// cost under 0.05 allocations per delivered row, everything the query
// allocates around them included.
func TestAllocsScanDeliveredRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const rows = 10000
	db := newDB(t, rows)
	for _, tc := range []struct{ src, strategy string }{
		{"SELECT * FROM FAMILIES WHERE INCOME >= 0", "Tscan"},
		{"SELECT AGE FROM FAMILIES WHERE AGE >= 0", "Sscan(AGE_IX)"},
	} {
		stmt, err := db.PrepareContext(context.Background(), tc.src)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(3, func() {
			res, err := stmt.QueryContext(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for {
				_, ok, err := res.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got++
			}
			if err := res.Close(); err != nil || got != rows || res.Stats().Strategy != tc.strategy {
				t.Fatalf("%s: %d rows by %s, %v", tc.src, got, res.Stats().Strategy, err)
			}
		})
		if perRow := n / rows; perRow >= 0.05 {
			t.Errorf("%s: %v allocations for %d delivered rows (%.3f a row), want under 0.05", tc.src, n, rows, perRow)
		} else {
			t.Logf("%s: %v allocations, %.4f a row", tc.src, n, perRow)
		}
	}
}

// TestAllocsIntersection: a two-index AND costs the same few allocations
// however its first list lies on the table's pages. The first index
// lists ~1 000 RIDs in key order, scattered over most of the table's
// ~800 pages; that list filters the second index as its sorted keys,
// built in one allocation, and neither leg copies an index entry. A
// filter built a page at a time costs an allocation or more per page,
// some 600 in all for this query; the whole query makes about 200.
func TestAllocsIntersection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	db := Open(Options{PageSize: 1024})
	if _, err := db.CreateTable("FAMILIES",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "AGE", Type: expr.TypeInt},
		catalog.Column{Name: "CITY", Type: expr.TypeString},
	); err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][2]string{{"AGE_IX", "AGE"}, {"CITY_IX", "CITY"}} {
		if _, err := db.CreateIndex("FAMILIES", ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	const rows = 20000
	for i := 0; i < rows; i++ {
		if err := db.Insert("FAMILIES", i, int(rng.Int63n(2000)), fmt.Sprintf("city-%d", rng.Intn(8))); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := db.PrepareContext(context.Background(),
		"SELECT ID FROM FAMILIES WHERE AGE >= 1000 AND AGE < 1100 AND CITY = 'city-3'")
	if err != nil {
		t.Fatal(err)
	}
	var stats core.RetrievalStats
	n := testing.AllocsPerRun(5, func() {
		res, err := stmt.QueryContext(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.All(); err != nil {
			t.Fatal(err)
		}
		stats = res.Stats()
	})
	if want := "Jscan[AGE_IX,CITY_IX]+Fin"; stats.Strategy != want {
		t.Fatalf("strategy %s, want %s", stats.Strategy, want)
	}
	if n > 300 {
		t.Errorf("%v allocations for an intersection delivering %d rows, want at most 300", n, stats.RowsDelivered)
	} else {
		t.Logf("%v allocations, %d rows", n, stats.RowsDelivered)
	}
}

// pointDB is newDB with an index on ID too, so a point query on ID is a
// background-only Jscan+Fin.
func pointDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db := Open(opts)
	if _, err := db.CreateTable("FAMILIES",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "AGE", Type: expr.TypeInt},
		catalog.Column{Name: "CITY", Type: expr.TypeString},
	); err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][2]string{{"ID_IX", "ID"}, {"AGE_IX", "AGE"}} {
		if _, err := db.CreateIndex("FAMILIES", ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		if err := db.Insert("FAMILIES", i, int(rng.Int63n(100)), fmt.Sprintf("city-%d", rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// pointQuery runs the prepared point query once per call for
// AllocsPerRun and checks its plan.
func pointQuery(t *testing.T, db *DB) func() {
	stmt, err := db.PrepareContext(context.Background(), "SELECT * FROM FAMILIES WHERE ID = :id")
	if err != nil {
		t.Fatal(err)
	}
	binds := Binds{"id": 4242}
	return func() {
		res, err := stmt.QueryContext(context.Background(), binds)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil || len(rows) != 1 || res.Stats().Strategy != "Jscan[ID_IX]+Fin" {
			t.Fatalf("%d rows by %s, %v", len(rows), res.Stats().Strategy, err)
		}
	}
}

// TestAllocsUntracedQuery: a decision nobody traces costs nothing. A
// prepared point query — a background-only Jscan over ID_IX, then Fin —
// on a DB with no sink builds no TraceEvent, formats no detail and keeps
// no log: 59 allocations a run, where building and keeping every
// decision's event whether or not anyone read it cost 74. The same query
// on a DB with a TraceLog attached still hands the log its events.
func TestAllocsUntracedQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if n := testing.AllocsPerRun(20, pointQuery(t, pointDB(t, Options{}))); n > 59 {
		t.Errorf("untraced point query: %v allocations, want at most 59", n)
	}
	log := &core.TraceLog{}
	pointQuery(t, pointDB(t, Options{Optimizer: core.Config{Trace: log}}))()
	evs := log.Take()
	if len(evs) == 0 || evs[0].Kind != core.EvTacticChosen || evs[len(evs)-1].Kind != core.EvFinalStage {
		t.Fatalf("traced point query handed its log %v", evs)
	}
}

// TestAllocsQueryContextHit: DB.QueryContext is PrepareContext +
// Stmt.QueryContext, and a text compiled before is a memo hit, so the
// point query through DB.QueryContext allocates no more than its
// prepared form measured here (59). Parsing and compiling the text on
// every call cost 77.
func TestAllocsQueryContextHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	db := pointDB(t, Options{})
	prepared := testing.AllocsPerRun(20, pointQuery(t, db))
	binds := Binds{"id": 4242}
	n := testing.AllocsPerRun(20, func() {
		res, err := db.QueryContext(context.Background(), "SELECT * FROM FAMILIES WHERE ID = :id", binds)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := res.All(); err != nil || len(rows) != 1 {
			t.Fatalf("%d rows, %v", len(rows), err)
		}
	})
	if n > prepared {
		t.Errorf("DB.QueryContext on a memo hit: %v allocations, the prepared form %v", n, prepared)
	}
}

// TestAllocsExecInsertHit: an INSERT whose text is a memo hit neither
// parses nor looks its table up: a one-row INSERT with its bindings
// costs 3 allocations, where parsing it on every call cost 17.
func TestAllocsExecInsertHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	db := dmlDB(t)
	id := 0
	if n := testing.AllocsPerRun(50, func() {
		id++
		if n, err := db.Exec("INSERT INTO T VALUES (:id, 'n', 1.0)", Binds{"id": id}); err != nil || n != 1 {
			t.Fatalf("insert: %d, %v", n, err)
		}
	}); n > 3 {
		t.Errorf("INSERT on a memo hit: %v allocations, want at most 3", n)
	}
}
