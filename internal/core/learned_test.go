package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// learnTables creates one-column tables named names in a fresh catalog:
// the state learned records are stamped with.
func learnTables(t *testing.T, names ...string) []*catalog.Table {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(4096), 0))
	tabs := make([]*catalog.Table, len(names))
	for i, n := range names {
		tab, err := cat.CreateTable(n, []catalog.Column{{Name: "A", Type: expr.TypeInt}})
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
	}
	return tabs
}

func insertN(t *testing.T, tab *catalog.Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := tab.Insert(expr.Row{expr.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFeedbackOffIsNeutral(t *testing.T) {
	tab := learnTables(t, "T")[0]
	o := NewOptimizer(Config{})
	o.observeCard("IX", 10, 100, tab)
	if got := o.correction("IX", tab); got != 1 {
		t.Fatalf("feedback off: correction = %v", got)
	}
	if o.correctionFor(tab) != nil {
		t.Fatal("feedback off must curry to nil")
	}
	if o.FeedbackSnapshot() != nil || len(o.learned) != 0 {
		t.Fatalf("feedback off learned %d records", len(o.learned))
	}
}

func TestFirstSampleAdoptsRatio(t *testing.T) {
	tabs := learnTables(t, "T", "U")
	o := NewOptimizer(Config{Feedback: true})
	o.observeCard("IX", 100, 400, tabs[0])
	if got := o.correction("IX", tabs[0]); got != 4 {
		t.Fatalf("first sample correction = %v, want 4", got)
	}
	// Unseen keys stay neutral.
	if got := o.correction("OTHER", tabs[0]); got != 1 {
		t.Fatalf("unseen key = %v", got)
	}
	if got := o.correction("IX", tabs[1]); got != 1 {
		t.Fatalf("unseen table = %v", got)
	}
}

func TestEMAConvergesTowardObservedRatio(t *testing.T) {
	tab := learnTables(t, "T")[0]
	o := NewOptimizer(Config{Feedback: true})
	for i := 0; i < 20; i++ {
		o.observeCard("IX", 100, 200, tab)
	}
	if got := o.correction("IX", tab); got != 2 {
		t.Fatalf("converged correction = %v, want 2", got)
	}
	// Each observation moves the factor a quarter of the way.
	o.observeCard("IX", 100, 100, tab)
	if got := o.correction("IX", tab); got != 1.75 {
		t.Fatalf("one step toward 1 = %v, want 1.75", got)
	}
	// A drifted workload pulls the factor over.
	for i := 0; i < 30; i++ {
		o.observeCard("IX", 100, 50, tab)
	}
	if got := o.correction("IX", tab); math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("drifted correction = %v, want ~0.5", got)
	}
}

func TestClamping(t *testing.T) {
	tab := learnTables(t, "T")[0]
	o := NewOptimizer(Config{Feedback: true})
	o.observeCard("IX", 1, 1e9, tab)
	if got := o.correction("IX", tab); got != 16 {
		t.Fatalf("over-clamp = %v, want 16", got)
	}
	o.observeCard("IY", 1e9, 1, tab)
	if got := o.correction("IY", tab); got != 1.0/16 {
		t.Fatalf("under-clamp = %v, want 1/16", got)
	}
}

func TestBadSamplesIgnored(t *testing.T) {
	tab := learnTables(t, "T")[0]
	o := NewOptimizer(Config{Feedback: true})
	o.observeCard("IX", 0, 100, tab)
	o.observeCard("IX", 100, 0, tab)
	o.observeCard("IX", -1, 5, tab)
	if s := o.FeedbackSnapshot(); s == nil || len(s) != 0 {
		t.Fatalf("bad samples recorded: %v", s)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	tabs := learnTables(t, "A", "B")
	o := NewOptimizer(Config{Feedback: true})
	o.observeCard("Z", 1, 2, tabs[1])
	o.observeCard("Y", 1, 2, tabs[0])
	o.observeCard("X", 1, 2, tabs[0])
	o.observeCard(joinFeedbackIndex, 1, 2, tabs...)
	s := o.FeedbackSnapshot()
	want := []learnedKey{{"A", "X"}, {"A", "Y"}, {"B", "Z"}, {"join(A,B)", joinFeedbackIndex}}
	if len(s) != len(want) {
		t.Fatalf("snapshot len = %d, want %d", len(s), len(want))
	}
	for i, w := range want {
		if s[i].Table != w.table || s[i].Index != w.index {
			t.Fatalf("snapshot[%d] = %s.%s, want %s.%s", i, s[i].Table, s[i].Index, w.table, w.index)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	tab := learnTables(t, "T")[0]
	o := NewOptimizer(Config{Feedback: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.observeCard("IX", 100, 200, tab)
				_ = o.correction("IX", tab)
				_ = o.FeedbackSnapshot()
			}
		}()
	}
	wg.Wait()
	if got := o.correction("IX", tab); math.Abs(got-2) > 1e-9 {
		t.Fatalf("card correction = %v, want 2", got)
	}
}

// TestLearnedRecordAgesWithTable: a record holds until its table moves
// on — more than max(32, card/5) row mutations, or any index created or
// dropped — and is then re-derived from nothing; a join's record ages
// with the sum over its tables.
func TestLearnedRecordAgesWithTable(t *testing.T) {
	tabs := learnTables(t, "T", "U")
	tab := tabs[0]
	insertN(t, tab, 100)
	o := NewOptimizer(Config{Feedback: true})
	learn := func() {
		t.Helper()
		o.observeCard("IX", 100, 400, tab)
		o.observeCard(joinFeedbackIndex, 100, 400, tabs...)
		if n := len(o.FeedbackSnapshot()); n != 2 {
			t.Fatalf("learned %d corrections, want 2", n)
		}
	}
	forgotten := func(what string) {
		t.Helper()
		if s := o.FeedbackSnapshot(); len(s) != 0 {
			t.Fatalf("after %s the snapshot still holds %v", what, s)
		}
		if got := o.correction("IX", tab); got != 1 {
			t.Fatalf("after %s: correction = %v, want 1", what, got)
		}
		if got := o.correction(joinFeedbackIndex, tabs...); got != 1 {
			t.Fatalf("after %s: join correction = %v, want 1", what, got)
		}
	}

	learn()
	insertN(t, tab, 32) // max(32, 100/5) mutations: still fresh
	if got := o.correction("IX", tab); got != 4 {
		t.Fatalf("after 32 inserts: correction = %v, want 4", got)
	}
	insertN(t, tab, 1)
	forgotten("33 inserts")

	learn()
	if _, err := tab.CreateIndex("IX", "A"); err != nil {
		t.Fatal(err)
	}
	forgotten("CreateIndex")

	learn()
	if err := tab.DropIndex("IX"); err != nil {
		t.Fatal(err)
	}
	forgotten("DropIndex")

	// The join record ages with U's mutations too; T's own does not.
	learn()
	insertN(t, tabs[1], 40)
	if got := o.correction("IX", tab); got != 4 {
		t.Fatalf("U's inserts aged T's record: correction = %v", got)
	}
	if got := o.correction(joinFeedbackIndex, tabs...); got != 1 {
		t.Fatalf("after 40 inserts into U: join correction = %v, want 1", got)
	}
}

// TestRederivationRate drives a mixed_rw-shaped stream — 35 % point
// reads, 10 % short ranges, 10 % fast-first LIMIT 5, 41 % inserts, 2 %
// updates, 2 % deletes, two clients' 4800 ops each after a 1000-op
// read-only warm-up — over a 20 000-row EVENTS table with feedback on,
// and counts how often a learned record is re-derived. The rule allows
// one re-derivation per record per max(32, card/5) mutations: here
// about one per record over the whole stream.
func TestRederivationRate(t *testing.T) {
	const base, warm, ops = 20000, 1000, 9600
	pool := storage.NewBufferPool(storage.NewDisk(4096), 4096)
	tab, err := catalog.New(pool).CreateTable("EVENTS", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt}, {Name: "TS", Type: expr.TypeInt},
		{Name: "KIND", Type: expr.TypeInt}, {Name: "PAD", Type: expr.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"ID", "TS", "KIND"} {
		if _, err := tab.CreateIndex(c+"_IX", c); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	row := func(id int64) expr.Row {
		return expr.Row{expr.Int(id), expr.Int(id), expr.Int(rng.Int63n(50)), expr.Str("pad-pad-pad-pad-pad-pad-pad-pad-pad-pad-pad-pad-pad-pad-pad")}
	}
	for id := int64(0); id < base; id++ {
		if _, err := tab.Insert(row(id)); err != nil {
			t.Fatal(err)
		}
	}
	cmp := func(op expr.CmpOp, col int, name string, v int64) expr.Expr {
		return expr.NewCmp(op, expr.Col(col, name), expr.Lit(expr.Int(v)))
	}
	o := NewOptimizer(Config{Feedback: true})
	read := func(u float64) {
		q := &Query{Table: tab}
		switch {
		case u < 0.35/0.55:
			q.Restriction = cmp(expr.EQ, 0, "ID", rng.Int63n(base))
		case u < 0.45/0.55:
			lo := rng.Int63n(base - 10)
			q.Restriction = expr.NewAnd(cmp(expr.GE, 1, "TS", lo), cmp(expr.LT, 1, "TS", lo+10))
		default:
			q.Restriction, q.Limit = cmp(expr.EQ, 2, "KIND", rng.Int63n(50)), 5
		}
		drain(t, o.RunExec(nil, q))
	}
	for i := 0; i < warm; i++ {
		read(rng.Float64())
	}

	stamps := map[learnedKey]catalog.Stamp{}
	rederived, mutations, next := 0, 0, int64(1_000_000)
	var own []storage.RID // inserted rows not yet updated or deleted
	for i := 0; i < ops; i++ {
		switch u := rng.Float64(); {
		case u < 0.55:
			read(u / 0.55)
		case u < 0.96 || len(own) == 0:
			rid, err := tab.Insert(row(next))
			if err != nil {
				t.Fatal(err)
			}
			own, next, mutations = append(own, rid), next+1, mutations+1
		default:
			k := rng.Intn(len(own))
			rid := own[k]
			own[k], own = own[len(own)-1], own[:len(own)-1]
			change := func(expr.Row) expr.Row { return nil } // delete
			if u < 0.98 {
				change = func(old expr.Row) expr.Row {
					return expr.Row{old[0], old[1], expr.Int((old[2].I + 1) % 50), old[3]}
				}
			}
			if _, err := tab.Mutate(func() ([]storage.RID, error) { return []storage.RID{rid}, nil }, change); err != nil {
				t.Fatal(err)
			}
			mutations++
		}
		for k, rec := range o.learned {
			if s, ok := stamps[k]; ok && s != rec.stamp {
				rederived++
			}
			stamps[k] = rec.stamp
		}
	}
	t.Logf("%d records, %d re-derived over %d mutations in %d ops", len(o.learned), rederived, mutations, ops)
	if rederived == 0 {
		t.Fatalf("no record re-derived over %d mutations of a %d-row table", mutations, base)
	}
	if limit := len(o.learned) * (mutations/(base/5) + 1); rederived > limit {
		t.Fatalf("%d re-derivations of %d records over %d mutations, the rule allows %d", rederived, len(o.learned), mutations, limit)
	}
}
