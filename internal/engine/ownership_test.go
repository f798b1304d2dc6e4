package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
)

// keptRow is the oracle's copy of one row of K.
type keptRow struct {
	id, grp   int64
	name, pad string
}

// keptDB builds K(ID, GRP, NAME, PAD) with indexes on ID and GRP, on
// small pages and a pool that holds a tenth of them.
func keptDB(t *testing.T, n, workers int) (*DB, []keptRow) {
	t.Helper()
	db := Open(Options{PageSize: 1024, PoolFrames: 24, Optimizer: core.Config{Parallelism: workers}})
	_, err := db.CreateTable("K",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "GRP", Type: expr.TypeInt},
		catalog.Column{Name: "NAME", Type: expr.TypeString},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []string{"ID", "GRP"} {
		if _, err := db.CreateIndex("K", ix+"_IX", ix); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]keptRow, n)
	for i := range rows {
		rows[i] = keptRow{int64(i), int64(i * 7 % 40), fmt.Sprintf("name-%04d", i*13%n), strings.Repeat("p", 20+i%9)}
		if err := db.Insert("K", rows[i].id, rows[i].grp, rows[i].name, rows[i].pad); err != nil {
			t.Fatal(err)
		}
	}
	return db, rows
}

// TestKeptRowsStayValid: a delivered row is the caller's for ever. Every
// row of every result — table scan, self-sufficient index scan, final
// stage, fast-first, sorted with a carried sort column, and a COUNT's
// zero-width retrieval — is kept, uncopied, across the later Next calls,
// Close, the other queries and DML that rewrites every heap page, and
// must still equal the oracle's row: nothing a scan reuses (its scratch,
// its step's pending survivors, a page) may be what the row is made of.
// Run sequentially and with two workers; -race covers the workers.
func TestKeptRowsStayValid(t *testing.T) {
	for _, workers := range []int{0, 2} {
		db, oracle := keptDB(t, 3000, workers)
		type shape struct {
			src      string
			strategy string // a substring of the executed tactic and strategy
			want     func(r keptRow) (expr.Row, bool)
			kept     []expr.Row
		}
		shapes := []*shape{
			{src: "SELECT * FROM K WHERE PAD >= 'p'", strategy: "Tscan", want: func(r keptRow) (expr.Row, bool) {
				return expr.Row{expr.Int(r.id), expr.Int(r.grp), expr.Str(r.name), expr.Str(r.pad)}, true
			}},
			{src: "SELECT GRP FROM K WHERE GRP >= 10", strategy: "Sscan(GRP_IX)", want: func(r keptRow) (expr.Row, bool) {
				return expr.Row{expr.Int(r.grp)}, r.grp >= 10
			}},
			{src: "SELECT NAME, ID FROM K WHERE GRP = 7", strategy: "Fin", want: func(r keptRow) (expr.Row, bool) {
				return expr.Row{expr.Str(r.name), expr.Int(r.id)}, r.grp == 7
			}},
			{src: "SELECT PAD, NAME FROM K WHERE GRP < 4 ORDER BY ID", strategy: "sort(", want: func(r keptRow) (expr.Row, bool) {
				return expr.Row{expr.Str(r.pad), expr.Str(r.name)}, r.grp < 4
			}},
			{src: "SELECT NAME FROM K WHERE GRP = 3 LIMIT 1000", strategy: "fast-first", want: func(r keptRow) (expr.Row, bool) {
				return expr.Row{expr.Str(r.name)}, r.grp == 3
			}},
		}
		for _, sh := range shapes {
			res, err := db.QueryContext(context.Background(), sh.src, nil)
			if err != nil {
				t.Fatal(err)
			}
			for {
				row, ok, err := res.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				sh.kept = append(sh.kept, row) // kept as delivered, not cloned
			}
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if st := res.Stats(); !strings.Contains(st.Tactic+" "+st.Strategy, sh.strategy) {
				t.Fatalf("workers %d, %s: ran as %s (%s), want %s", workers, sh.src, st.Strategy, st.Tactic, sh.strategy)
			}
		}
		if n := countRows(t, db, "SELECT COUNT(*) FROM K WHERE GRP >= 10"); n != int64(len(shapes[1].kept)) {
			t.Errorf("workers %d: COUNT(*) = %d, the scan delivered %d", workers, n, len(shapes[1].kept))
		}
		// Rewrite every record, then drop half of them.
		if n, err := db.Exec("UPDATE K SET NAME = 'overwritten-overwritten', PAD = 'q' WHERE ID >= 0", nil); err != nil || n != len(oracle) {
			t.Fatal(n, err)
		}
		if _, err := db.Exec("DELETE FROM K WHERE GRP < 20", nil); err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, db, "SELECT COUNT(*) FROM K WHERE NAME = 'overwritten-overwritten'"); n != int64(len(oracle)/2) {
			t.Fatalf("workers %d: %d rows left after the DML", workers, n)
		}
		for _, sh := range shapes {
			var want []string
			for _, r := range oracle {
				if row, ok := sh.want(r); ok {
					want = append(want, fmt.Sprint(row))
				}
			}
			got := make([]string, len(sh.kept))
			for i, row := range sh.kept {
				got[i] = fmt.Sprint(row)
			}
			if !strings.Contains(sh.src, "ORDER BY") {
				slices.Sort(got)
				slices.Sort(want)
			}
			if !slices.Equal(got, want) {
				t.Errorf("workers %d, %s: the %d kept rows no longer equal the oracle's %d", workers, sh.src, len(got), len(want))
			}
		}
	}
}

// TestCountUnderUpperBoundSkipsNulls: COUNT(*) projects nothing, so the
// restricted column's index answers it alone (Sscan), and a range with
// only an upper bound does not count the NULL keys below it.
func TestCountUnderUpperBoundSkipsNulls(t *testing.T) {
	db := Open(Options{})
	if _, err := db.CreateTable("N", catalog.Column{Name: "ID", Type: expr.TypeInt}, catalog.Column{Name: "A", Type: expr.TypeInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("N", "A_IX", "A"); err != nil {
		t.Fatal(err)
	}
	for i, k := 0, 0; i < 2000; i++ {
		var a any // NULL in every tenth row, else 18 rows a value of 0..99
		if i%10 != 0 {
			a = k % 100
			k++
		}
		if err := db.Insert("N", i, a); err != nil {
			t.Fatal(err)
		}
	}
	for src, want := range map[string]int64{
		"SELECT COUNT(*) FROM N WHERE A < 10":            180,
		"SELECT COUNT(*) FROM N WHERE A <= 9":            180,
		"SELECT COUNT(*) FROM N WHERE A >= 0":            1800,
		"SELECT COUNT(*) FROM N WHERE A < 10 AND A <> 3": 162,
		"SELECT COUNT(*) FROM N":                         2000,
	} {
		res, err := db.QueryContext(context.Background(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats(); rows[0][0].I != want || st.Strategy != "Sscan(A_IX)" {
			t.Errorf("%s = %d by %s, want %d by Sscan(A_IX)", src, rows[0][0].I, st.Strategy, want)
		}
	}
}
