package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rdbdyn/internal/btree"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// raceEnabled is set by raceon_test.go when the race detector is on.
var raceEnabled bool

func skipAllocsUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
}

// stepAllocs reports the allocations and delivered rows of one step of
// s, drained into the void, averaged over 20 steps after one warming
// step (which sizes the consumer's scratch and the queue's buffer once).
func stepAllocs(t *testing.T, s stepper, out *rowQueue) (allocs float64, delivered int) {
	t.Helper()
	step := func() {
		if _, err := s.step(); err != nil {
			t.Fatal(err)
		}
		for !out.empty() {
			out.pop()
			delivered++
		}
	}
	step()
	delivered = 0
	allocs = testing.AllocsPerRun(20, step) // runs step 21 times
	return allocs, delivered / 21
}

// TestAllocsRejectedRowsAreFree: a row the restriction rejects costs no
// allocation on any scan — heap record (Tscan), index entry (Sscan) or
// the key-local check of a Jscan batch.
func TestAllocsRejectedRowsAreFree(t *testing.T) {
	skipAllocsUnderRace(t)
	f := newFixture(t, 4000, "AGE")
	ix := f.tab.IndexByName("IX_AGE")
	// NAME is a string and CITY an int: both are read, nothing passes.
	none := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col(f.col(t, "NAME"), "NAME"), expr.Lit(expr.Str("name-"))),
		expr.NewCmp(expr.LT, expr.Col(f.col(t, "CITY"), "CITY"), expr.Var("NEG")),
	)
	q := &Query{Table: f.tab, Restriction: none, Binds: expr.Bindings{"NEG": expr.Int(-1)}}

	out := &rowQueue{}
	ts := newTscan(nil, q, q.kernel(), out, 1)
	defer ts.release()
	if n, got := stepAllocs(t, ts, out); n != 0 || got != 0 {
		t.Errorf("Tscan step over %d rejected rows: %v allocations, %d rows", ts.rpp, n, got)
	}

	age := f.col(t, "AGE")
	// The scans below cover the whole index, not the (empty) range of the
	// restriction, so it must be one no key range is taken to prove:
	// its constant lies outside float64's exact integers.
	kq := &Query{Table: f.tab, Projection: []int{age},
		Restriction: expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(-1<<53)))}
	ss, err := newSscan(nil, kq, ix, nil, nil, out, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.release()
	if n, got := stepAllocs(t, ss, out); n != 0 || got != 0 {
		t.Errorf("Sscan step over %d rejected entries: %v allocations, %d rows", stepEntries, n, got)
	}

	cur, err := ix.Tree.Seek(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	batch := make([]btree.Entry, stepEntries)
	got, err := cur.NextBatch(batch)
	if err != nil || got == 0 {
		t.Fatal(got, err)
	}
	local, sc := keyKernel(kq.Restriction, nil, ix), newAcceptScratch(stepEntries)
	if n := testing.AllocsPerRun(20, func() {
		if kept, err := acceptEntries(batch[:got], ix, local, nil, rid.TrueFilter{}, sc); err != nil || len(kept) != 0 {
			t.Fatal(len(kept), err)
		}
	}); n != 0 {
		t.Errorf("acceptEntries over %d rejected entries: %v allocations", got, n)
	}
}

// TestAllocsKeptRowUnderProjection: a kept row is carved, never copied —
// a step's kept rows cost at most one allocation together (a block of
// the queue's slab holds stepEntries rows, and a Tscan step keeps at
// most a page of them), a delivered string costs none, and a zero-width
// projection (COUNT(*), EXISTS) costs nothing.
func TestAllocsKeptRowUnderProjection(t *testing.T) {
	skipAllocsUnderRace(t)
	f := newFixture(t, 4000)
	for _, tc := range []struct {
		name       string
		projection []int
		perStep    float64
	}{
		{"nothing", []int{}, 0},
		{"one int column", []int{0}, 1},
		{"int and string", []int{0, f.col(t, "NAME")}, 1},
		{"select *", nil, 1},
	} {
		q := &Query{Table: f.tab, Projection: tc.projection}
		out := &rowQueue{}
		ts := newTscan(nil, q, q.kernel(), out, 1)
		n, got := stepAllocs(t, ts, out)
		ts.release()
		if got != ts.rpp || ts.rpp > stepEntries || n > tc.perStep {
			t.Errorf("%s: %v allocations per step of %d kept rows (%d delivered), want at most %v", tc.name, n, ts.rpp, got, tc.perStep)
		}
	}
}

// plantCorrupt overwrites the stored record of row i with a copy that
// still decodes up to its last column but carries one trailing byte.
func plantCorrupt(t *testing.T, pool *storage.BufferPool, heap *storage.HeapFile, nth int) {
	t.Helper()
	cur := heap.Cursor()
	defer cur.Close()
	for i := 0; ; i++ {
		rec, r, ok, err := cur.Next()
		if err != nil || !ok {
			t.Fatal("no such record", err)
		}
		if i == nth {
			p, err := pool.GetDirty(r.Page)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Update(r.Slot, append(append([]byte(nil), rec...), 0)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
}

// TestCorruptRecordBehindRejectingPredicate: deciding on the encoded
// record never skips its validation — a record the restriction rejects
// on an early column still fails the scan with ErrCorruptRecord when its
// tail is corrupt, on the Tscan, final-stage and join table-access paths.
func TestCorruptRecordBehindRejectingPredicate(t *testing.T) {
	next := func(rows Rows) error {
		defer rows.Close()
		for {
			if _, ok, err := rows.Next(); err != nil || !ok {
				return err
			}
		}
	}
	rejectID := func(col int) expr.Expr { return expr.NewCmp(expr.LT, expr.Col(col, "ID"), expr.Lit(expr.Int(0))) }

	f := newFixture(t, 300, "AGE")
	plantCorrupt(t, f.pool, f.tab.Heap, 150)
	o := NewOptimizer(Config{})
	tscan := o.RunExec(nil, &Query{Table: f.tab, Restriction: rejectID(0), Projection: []int{0}})
	if err := next(tscan); !errors.Is(err, expr.ErrCorruptRecord) {
		t.Errorf("Tscan (%s): %v", tscan.Stats().Strategy, err)
	}
	// Every AGE is below 1000, so the Jscan lists all 300 RIDs and the
	// final stage fetches the planted record.
	age := f.col(t, "AGE")
	fin := o.RunExec(nil, &Query{Table: f.tab, Projection: []int{0}, Restriction: expr.NewAnd(
		rejectID(0), expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(1000))))})
	if err := next(fin); !errors.Is(err, expr.ErrCorruptRecord) {
		t.Errorf("final stage (%s): %v", fin.Stats().Strategy, err)
	}

	jf := newJoinFixture(t, 50, 200, 10, 0, false)
	plantCorrupt(t, jf.pool, jf.cust.Heap, 25)
	// SEG has no index, so no estimate can prove the restriction empty.
	jq := jf.custOrdQuery(expr.NewCmp(expr.LT, expr.Col(1, "SEG"), expr.Lit(expr.Int(0))))
	jq.Projection = []int{0}
	plan := &JoinPlan{Stages: []JoinStagePlan{
		{Table: 0, Operator: "tscan"}, {Table: 1, Operator: JoinOpHJ},
	}}
	if err := next(NewOptimizer(Config{}).RunJoin(nil, jq, plan)); !errors.Is(err, expr.ErrCorruptRecord) {
		t.Errorf("join table access: %v", err)
	}
}

// TestRowQueueCarvesKeptRows: the kernel carves a survivor's projected
// columns, in projection order, into an exact row of its queue's slab
// and copies no string: the row views the record it was decoded from. A
// zero-width row is empty but not nil and costs nothing, and at the cap
// a block holds at least stepEntries rows in one allocation.
func TestRowQueueCarvesKeptRows(t *testing.T) {
	rec := expr.EncodeRow(expr.Row{expr.Int(1), expr.Str("abc"), expr.Str("xyz")})
	view, err := expr.DecodeView(rec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var q rowQueue
	all, picked, none := &rowKernel{}, &rowKernel{proj: []int{2, 0}}, &rowKernel{proj: []int{}}
	for _, k := range []*rowKernel{all, picked, none} {
		k.emit(storage.RID{}, &view, &q)
	}
	rows := []expr.Row{q.pop(), q.pop(), q.pop()}
	if fmt.Sprint(rows[0]) != `[1 "abc" "xyz"]` || fmt.Sprint(rows[1]) != `["xyz" 1]` {
		t.Fatalf("kept rows %v and %v", rows[0], rows[1])
	}
	if cap(rows[0]) != len(rows[0]) || cap(rows[1]) != len(rows[1]) {
		t.Fatalf("kept rows are not exact: caps %d and %d", cap(rows[0]), cap(rows[1]))
	}
	if rows[2] == nil || len(rows[2]) != 0 {
		t.Fatalf("zero-width row %#v", rows[2])
	}
	for i := range rec {
		rec[i] = '#' // what storage never does to a stored record
	}
	if rows[0][1].S == "abc" || rows[1][0].S == "xyz" {
		t.Fatal("a kept row copied its strings out of the record")
	}
	skipAllocsUnderRace(t)
	if n := testing.AllocsPerRun(20, func() { none.emit(storage.RID{}, &view, &q); q.pop() }); n != 0 {
		t.Errorf("a zero-width row: %v allocations", n)
	}
	for q.carved < stepEntries {
		q.carve(2)
		q.pop()
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 10 * stepEntries {
			q.carve(2)
			q.pop()
		}
	}); n < 1 || n > 10 {
		t.Errorf("%d two-column rows at the cap: %v allocations, want 1 to 10", 10*stepEntries, n)
	}
}

// TestQueueReusesItsBuffer: pop walks a head index instead of reslicing
// the front away, so a consumer that keeps up never makes push re-grow
// the buffer, and a popped row is not kept alive by its old slot.
func TestQueueReusesItsBuffer(t *testing.T) {
	var q rowQueue
	q.push(expr.Row{expr.Int(-1)})
	q.push(expr.Row{expr.Int(-2)})
	q.pop()
	if q.rows[0] != nil {
		t.Fatal("popped slot still references its row")
	}
	q.pop()
	for i := 0; i < 10000; i++ {
		q.push(expr.Row{expr.Int(int64(i))})
		q.push(expr.Row{expr.Int(int64(-i))})
		if a, b := q.pop(), q.pop(); a[0].I != int64(i) || b[0].I != int64(-i) || !q.empty() {
			t.Fatalf("round %d: popped %v, %v", i, a, b)
		}
	}
	if cap(q.rows) > 4 {
		t.Fatalf("buffer grew to %d slots for a queue never more than 2 deep", cap(q.rows))
	}
}

// TestSscanRecordsDeliveredOnlyForLiveBackground: delivered RIDs exist
// for a background's final stage to skip; a lone Sscan records none, and
// an index-only Sscan stops once its background has ended.
func TestSscanRecordsDeliveredOnlyForLiveBackground(t *testing.T) {
	f := wideFixture(t, 30000, "A+B", "B")
	a, b := f.col(t, "A"), f.col(t, "B")
	lt := func(col int, v int64) expr.Expr {
		return expr.NewCmp(expr.LT, expr.Col(col, ""), expr.Lit(expr.Int(v)))
	}
	for _, tc := range []struct {
		tactic      string
		restriction expr.Expr
	}{
		{"sscan", lt(a, 9000)},
		{"index-only", expr.NewAnd(lt(a, 9000), lt(b, 9000))},
	} {
		q := &Query{Table: f.tab, Restriction: tc.restriction, Projection: []int{a, b}}
		rows := NewOptimizer(DefaultConfig()).RunExec(nil, q)
		sameMultiset(t, drain(t, rows), f.naive(t, q), tc.tactic)
		st := rows.Stats()
		ss, ok := rows.(*retrieval).fg.(*sscan)
		if st.Tactic != tc.tactic || !ok || strings.Contains(st.Strategy, "Fin") {
			t.Fatalf("%s: tactic %s, strategy %s", tc.tactic, st.Tactic, st.Strategy)
		}
		if tracking := ss.track != nil && ss.track(); tracking || len(ss.delivered) > st.RowsDelivered/2 {
			t.Errorf("%s: %d of %d delivered RIDs recorded, still tracking: %v", tc.tactic, len(ss.delivered), st.RowsDelivered, tracking)
		}
		if lone := tc.tactic == "sscan"; lone != (len(ss.delivered) == 0) {
			t.Errorf("%s recorded %d delivered RIDs", tc.tactic, len(ss.delivered))
		}
	}
}
