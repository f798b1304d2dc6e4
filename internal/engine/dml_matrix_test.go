package engine

import (
	"bytes"
	"errors"
	"maps"
	"strings"
	"sync"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/sql"
)

// eventLog is a TraceSink that keeps what it is sent.
type eventLog struct {
	mu     sync.Mutex
	events []core.TraceEvent
}

func (l *eventLog) Event(ev core.TraceEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// take returns and forgets the events logged so far.
func (l *eventLog) take() []core.TraceEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.events
	l.events = nil
	return out
}

// matrixRow is the oracle's copy of one row of M.
type matrixRow struct{ id, grp, val int64 }

// matrixDB builds M(ID, GRP, VAL, PAD) with indexes on ID and GRP (VAL
// has none) and n rows, on a pool small enough to go cold.
func matrixDB(t *testing.T, n int, sink core.TraceSink) (*DB, []matrixRow) {
	t.Helper()
	db := Open(Options{PageSize: 1024, Optimizer: core.Config{Trace: sink}})
	_, err := db.CreateTable("M",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "GRP", Type: expr.TypeInt},
		catalog.Column{Name: "VAL", Type: expr.TypeInt},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []string{"ID", "GRP"} {
		if _, err := db.CreateIndex("M", ix+"_IX", ix); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]matrixRow, n)
	for i := range rows {
		rows[i] = matrixRow{int64(i), int64(i % 50), 100 + int64(i*7%101)} // VAL: two-byte varints, so an UPDATE fits in place
		if err := db.Insert("M", rows[i].id, rows[i].grp, rows[i].val, strings.Repeat("p", 40)); err != nil {
			t.Fatal(err)
		}
	}
	return db, rows
}

// TestDMLMatrix drives UPDATE and DELETE through DB.Exec over the
// restriction shapes a SELECT meets — indexed key, unindexed column, OR
// of two indexes, a range — and checks rows affected and the surviving
// table against an oracle, that the victim retrieval is an ordinary
// dynamic retrieval (counted in DB.Metrics, traced to the sink, on the
// scan the restriction calls for), and that no pin outlives the
// statement. UPDATE-GROW sets a 300-byte PAD, which outgrows the 1 KiB
// heap pages: a page's first victims fill it and the rest move to new
// RIDs. After every verb each surviving row is found exactly once by a
// Tscan and through every index, whose entries all lead to their row.
func TestDMLMatrix(t *testing.T) {
	grown := "'" + strings.Repeat("q", 300) + "'"
	for _, c := range []struct {
		name, where string
		binds       Binds
		match       func(matrixRow) bool
		scan        string // what the victim retrieval's tactic-chosen event names
	}{
		{"indexed key", "ID = :id", Binds{"id": 1234}, func(r matrixRow) bool { return r.id == 1234 }, "Sscan(ID_IX)"},
		{"indexed key, none", "ID = :id", Binds{"id": -5}, func(r matrixRow) bool { return false }, "Sscan(ID_IX)"},
		{"index and residue", "GRP = 7 AND VAL < 150", nil, func(r matrixRow) bool { return r.grp == 7 && r.val < 150 }, "Jscan"},
		{"two indexes", "GRP = 7 AND ID < 1000", nil, func(r matrixRow) bool { return r.grp == 7 && r.id < 1000 }, "Jscan"},
		{"unindexed column", "VAL = :v", Binds{"v": 103}, func(r matrixRow) bool { return r.val == 103 }, "Tscan"},
		{"or of two indexes", "ID < 20 OR GRP = 49", nil, func(r matrixRow) bool { return r.id < 20 || r.grp == 49 }, "Uscan"},
		{"everything", "", nil, func(r matrixRow) bool { return true }, "Sscan"},
	} {
		for _, verb := range []string{"DELETE", "UPDATE", "UPDATE-GROW"} {
			t.Run(verb+"/"+c.name, func(t *testing.T) {
				log := &eventLog{}
				db, rows := matrixDB(t, 3000, log)
				stmt, set, where := "DELETE FROM M", "", ""
				switch verb {
				case "UPDATE":
					set = "VAL = 1000"
				case "UPDATE-GROW":
					set = "PAD = " + grown
				}
				if set != "" {
					stmt = "UPDATE M SET " + set
				}
				if c.where != "" {
					where = " WHERE " + c.where
				}
				want := 0
				for _, r := range rows {
					if c.match(r) {
						want++
					}
				}
				log.take()
				queries := db.Metrics().Queries
				n, err := db.Exec(stmt+where, c.binds)
				if err != nil || n != want {
					t.Fatalf("%s%s: %d rows (%v), the oracle counts %d", verb, where, n, err, want)
				}
				if got := db.Metrics().Queries - queries; got != 1 {
					t.Fatalf("the victim retrieval counted as %d queries in DB.Metrics, want 1", got)
				}
				var scan string
				events := log.take()
				for _, ev := range events {
					if ev.Kind == core.EvTacticChosen {
						scan = ev.Scan
					}
				}
				if !strings.HasPrefix(scan, c.scan) {
					t.Fatalf("the victim retrieval's %d traced events name the scan %q, want %s", len(events), scan, c.scan)
				}
				if p := db.Pool().PinnedPages(); p != 0 {
					t.Fatalf("%d pins left", p)
				}
				// What is left is what the oracle leaves, in the heap and
				// through each index.
				left, changed := 0, 0
				for _, r := range rows {
					switch {
					case !c.match(r):
						left++
					case set != "":
						left++
						changed++
					}
				}
				for _, probe := range []string{"ID >= 0", "GRP >= 0", "VAL >= 0"} {
					if got := countRows(t, db, "SELECT COUNT(*) FROM M WHERE "+probe); got != int64(left) {
						t.Fatalf("%s: %d rows left, the oracle has %d", probe, got, left)
					}
				}
				if set != "" {
					if got := countRows(t, db, "SELECT COUNT(*) FROM M WHERE "+set); got != int64(changed) {
						t.Fatalf("%d rows carry the new value, the oracle has %d", got, changed)
					}
				}
				survivors := map[int64]int{}
				for _, r := range rows {
					if set != "" || !c.match(r) {
						survivors[r.id] = 1
					}
				}
				res, err := db.Query("SELECT ID FROM M WHERE VAL >= 0", nil) // VAL has no index: a Tscan
				if err != nil {
					t.Fatal(err)
				}
				ids, err := res.All()
				if err != nil {
					t.Fatal(err)
				}
				seen := map[int64]int{}
				for _, r := range ids {
					seen[r[0].I]++
				}
				if !maps.Equal(seen, survivors) {
					t.Fatalf("a Tscan finds %d rows (%d distinct), the oracle leaves %d, each once", len(ids), len(seen), len(survivors))
				}
				checkIndexEntries(t, db, survivors)
				if p := db.Pool().PinnedPages(); p != 0 {
					t.Fatalf("%d pins left after the checks", p)
				}
			})
		}
	}
}

// checkIndexEntries walks every index of M: each entry must lead to a
// live row whose key it carries, and each row in want must be found
// exactly once through every index, whose Len counts them.
func checkIndexEntries(t *testing.T, db *DB, want map[int64]int) {
	t.Helper()
	tab, err := db.cat.Table("M")
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range tab.Indexes {
		cur, err := ix.Tree.Seek(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]int{}
		for {
			key, rid, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			row, err := tab.Fetch(rid)
			if err != nil {
				t.Fatalf("%s: an entry leads to %v: %v", ix.Name, rid, err)
			}
			if !bytes.Equal(ix.KeyFor(row), key) {
				t.Fatalf("%s: the entry at %v carries another key than its row", ix.Name, rid)
			}
			seen[row[0].I]++
		}
		cur.Close()
		if !maps.Equal(seen, want) || ix.Tree.Len() != int64(len(want)) {
			t.Fatalf("%s: %d distinct rows, Len %d; the oracle leaves %d, each once", ix.Name, len(seen), ix.Tree.Len(), len(want))
		}
	}
}

// TestDMLByKeyTouchesHeightPages: on a cold pool an UPDATE or DELETE by
// indexed key reads the index path, the victim's heap page and the other
// indexes' paths — a few pages per level, not the heap.
func TestDMLByKeyTouchesHeightPages(t *testing.T) {
	db, _ := matrixDB(t, 6000, nil)
	tab, err := db.cat.Table("M")
	if err != nil {
		t.Fatal(err)
	}
	height := 0
	for _, ix := range tab.Indexes {
		height += ix.Tree.Height()
	}
	for _, stmt := range []string{"UPDATE M SET GRP = 99 WHERE ID = :id", "DELETE FROM M WHERE ID = :id"} {
		db.Pool().EvictAll()
		before := db.Pool().Stats()
		if n, err := db.Exec(stmt, Binds{"id": 4321}); err != nil || n != 1 {
			t.Fatalf("%s: %d, %v", stmt, n, err)
		}
		reads := db.Pool().Stats().Sub(before).Reads
		// Estimation, the retrieval and the index maintenance each walk
		// an index path; twice the summed heights plus the heap page is
		// a generous bound and far below a heap scan.
		if bound := int64(2*height + 2); reads > bound || reads >= int64(tab.Pages())/10 {
			t.Fatalf("%s: %d page reads on a cold pool (summed index height %d, heap %d pages)", stmt, reads, height, tab.Pages())
		}
	}
}

// TestUpdateOfRestrictedIndexedColumn: the victims are collected before
// the first row changes, so an UPDATE that moves rows along the index it
// searches changes each row once — the Halloween problem.
func TestUpdateOfRestrictedIndexedColumn(t *testing.T) {
	db, _ := matrixDB(t, 2000, nil)
	n, err := db.Exec("UPDATE M SET ID = 100000 WHERE ID >= 500", nil)
	if err != nil || n != 1500 {
		t.Fatalf("updated %d rows (%v), want 1500", n, err)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM M WHERE ID = 100000"); got != 1500 {
		t.Fatalf("%d rows moved, want 1500", got)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM M WHERE ID >= 0"); got != 2000 {
		t.Fatalf("%d rows in all, want 2000", got)
	}
	// A second run finds the moved rows by the same index and moves them
	// again, once each.
	if n, err := db.Exec("UPDATE M SET ID = 100001 WHERE ID >= 500", nil); err != nil || n != 1500 {
		t.Fatalf("second run updated %d rows (%v), want 1500", n, err)
	}
}

// TestDMLFailsAsSelectDoes: what makes a SELECT of a restriction fail
// makes the UPDATE and the DELETE of it fail the same way, with nothing
// changed and no pin left: an unbound parameter, and a record the
// victim retrieval cannot decode.
func TestDMLFailsAsSelectDoes(t *testing.T) {
	db, _ := matrixDB(t, 500, nil)
	tab, err := db.cat.Table("M")
	if err != nil {
		t.Fatal(err)
	}
	check := func(where string, target error) {
		t.Helper()
		res, qerr := db.Query("SELECT ID FROM M WHERE "+where, nil)
		if qerr == nil {
			_, qerr = res.All()
		}
		if qerr == nil || target != nil && !errors.Is(qerr, target) {
			t.Fatalf("SELECT WHERE %s: %v", where, qerr)
		}
		epoch := tab.StatsEpoch()
		for _, stmt := range []string{"DELETE FROM M WHERE ", "UPDATE M SET VAL = 0 WHERE "} {
			n, err := db.Exec(stmt+where, nil)
			if n != 0 || err == nil || err.Error() != qerr.Error() {
				t.Fatalf("%s%s: %d rows, %v; SELECT fails with %v", stmt, where, n, err, qerr)
			}
		}
		if tab.StatsEpoch() != epoch {
			t.Fatal("a failed statement changed rows")
		}
		if p := db.Pool().PinnedPages(); p != 0 {
			t.Fatalf("%d pins left", p)
		}
	}
	check("ID = :nobody", nil)
	check("VAL = :nobody", nil)
	// A corrupt record in the heap: whoever fetches it fails.
	if _, err := tab.Heap.Insert(append(expr.EncodeRow(expr.Row{expr.Int(-1), expr.Int(0), expr.Int(0), expr.Str("x")}), 0)); err != nil {
		t.Fatal(err)
	}
	check("VAL >= 0", expr.ErrCorruptRecord)
}

// TestUpdateRejectsUnsupportedSetValue: a SET value that is neither a
// literal nor a parameter is the error execInsert gives for such a
// VALUES entry, not a silent NULL.
func TestUpdateRejectsUnsupportedSetValue(t *testing.T) {
	db, _ := matrixDB(t, 10, nil)
	stmt := &sql.UpdateStmt{Table: "M", Sets: []sql.SetClause{{Col: "VAL", Value: sql.ColNode{Name: "ID"}}}}
	if n, err := db.execUpdate(stmt, nil); n != 0 || err == nil || !strings.Contains(err.Error(), "unsupported SET value") {
		t.Fatalf("SET VAL = ID: %d rows, %v", n, err)
	}
	if got := countRows(t, db, "SELECT COUNT(*) FROM M WHERE VAL >= 0"); got != 10 {
		t.Fatalf("%d rows kept their VAL, want 10", got)
	}
}
