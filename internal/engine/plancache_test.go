package engine

import (
	"context"
	"fmt"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
)

// cacheRows is the fixture size for the plan-cache tests: big enough
// that tactics differ by selectivity, small enough to stay fast.
const cacheRows = 20000

// buildCacheDB loads the FAMILIES fixture deterministically (no
// randomness: column values are arithmetic in the row number, so twin
// databases are bit-identical).
func buildCacheDB(t testing.TB, opts Options) *DB {
	t.Helper()
	opts.Optimizer.RaceFactor = -1 // keep runs deterministic for twin comparison
	db := Open(opts)
	_, err := db.CreateTable("FAMILIES",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "AGE", Type: expr.TypeInt},
		catalog.Column{Name: "CITY", Type: expr.TypeString},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, 40)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < cacheRows; i++ {
		age := (i * 7919) % 10000 // pseudo-uniform, deterministic
		city := fmt.Sprintf("C%03d", (i*31)%97)
		if err := db.Insert("FAMILIES", i, age, city, string(pad)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range [][2]string{{"AGE_IX", "AGE"}, {"CITY_IX", "CITY"}, {"ID_IX", "ID"}} {
		if _, err := db.CreateIndex("FAMILIES", ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// cacheShape is one statement shape exercised by the equivalence suite.
type cacheShape struct {
	name  string
	src   string
	binds Binds
	// tactic the dynamic optimizer settles on (checked so the suite is
	// known to cover distinct plan forms, not six spellings of tscan).
	tactic string
	// Pinned by TestPlanCacheWarmReplayIO: rows delivered, the cold
	// run's estimation I/O, and pool I/O of a cold and of a frozen run.
	rows                          int
	coldSetupIO, coldIO, frozenIO int64
}

func cacheShapes() []cacheShape {
	pad := ""
	for i := 0; i < 40; i++ {
		pad += "x"
	}
	return []cacheShape{
		{"seq-sweep", "SELECT * FROM FAMILIES WHERE PAD = :p", Binds{"p": pad}, "tscan", 20000, 0, 147, 147},
		{"covered-range", "SELECT AGE FROM FAMILIES WHERE AGE >= :lo", Binds{"lo": 9900}, "sscan", 200, 0, 2, 2},
		{"ordered-range", "SELECT ID, AGE FROM FAMILIES WHERE AGE >= :lo ORDER BY AGE", Binds{"lo": 9950}, "fscan", 100, 2, 116, 102},
		{"intersection", "SELECT * FROM FAMILIES WHERE AGE >= :lo AND CITY = :c", Binds{"lo": 9000, "c": "C042"}, "background-only", 21, 6, 32, 32},
		{"limited", "SELECT * FROM FAMILIES WHERE CITY = :c LIMIT 5", Binds{"c": "C042"}, "fast-first", 5, 3, 23, 9},
		{"sorted-filter", "SELECT * FROM FAMILIES WHERE AGE >= :lo AND CITY = :c ORDER BY AGE", Binds{"lo": 9930, "c": "C042"}, "sorted", 1, 5, 14, 14},
		{"count-range", "SELECT COUNT(*) FROM FAMILIES WHERE AGE >= :lo", Binds{"lo": 9900}, "sscan", 1, 0, 2, 2}, // projects nothing: AGE_IX is self-sufficient
	}
}

// runShape executes one shape and returns its rows and stats.
func runShape(t testing.TB, db *DB, sh cacheShape) ([]expr.Row, core.RetrievalStats) {
	t.Helper()
	res, err := db.QueryContext(context.Background(), sh.src, sh.binds)
	if err != nil {
		t.Fatalf("%s: %v", sh.name, err)
	}
	var rows []expr.Row
	for {
		row, ok, err := res.Next()
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if !ok {
			break
		}
		rows = append(rows, row.Clone())
	}
	if err := res.Close(); err != nil {
		t.Fatalf("%s: close: %v", sh.name, err)
	}
	// Stats are finalized by Close; read them after.
	return rows, res.Stats()
}

// TestPlanCacheEquivalence runs the same query history against twin
// databases — one with the plan cache off, one with it on — and demands
// bit-equal results every round: same rows in the same order, same
// attributed IOStats (reads, writes, AND pool hits: a replay must touch
// exactly the pages the clean dynamic run touches), same rows
// delivered. The shape list covers six distinct tactics, so frozen
// replay is exercised across every replayable plan form.
func TestPlanCacheEquivalence(t *testing.T) {
	shapes := cacheShapes()
	cold := buildCacheDB(t, Options{})
	warm := buildCacheDB(t, Options{PlanCache: PlanCacheConfig{Enable: true}})
	const rounds = 5
	for round := 1; round <= rounds; round++ {
		for _, sh := range shapes {
			rc, stc := runShape(t, cold, sh)
			rw, stw := runShape(t, warm, sh)
			if round == 1 && stc.Tactic != sh.tactic {
				t.Errorf("%s: dynamic tactic = %s, suite expects %s", sh.name, stc.Tactic, sh.tactic)
			}
			if len(rc) != len(rw) {
				t.Fatalf("round %d %s: %d rows cold, %d warm", round, sh.name, len(rc), len(rw))
			}
			for i := range rc {
				if len(rc[i]) != len(rw[i]) {
					t.Fatalf("round %d %s row %d: width differs", round, sh.name, i)
				}
				for j := range rc[i] {
					if expr.Compare(rc[i][j], rw[i][j]) != 0 {
						t.Fatalf("round %d %s row %d col %d: cold %s, warm %s",
							round, sh.name, i, j, rc[i][j], rw[i][j])
					}
				}
			}
			if stc.IO != stw.IO {
				t.Errorf("round %d %s: IOStats cold %+v, warm %+v", round, sh.name, stc.IO, stw.IO)
			}
			if stc.RowsDelivered != stw.RowsDelivered {
				t.Errorf("round %d %s: RowsDelivered cold %d, warm %d", round, sh.name, stc.RowsDelivered, stw.RowsDelivered)
			}
		}
	}
	// Per-tactic win totals must agree: a replayed plan counts toward
	// the same tactic as the dynamic competition it replaced. (Decision
	// counters like abandonments legitimately differ — a replay holds no
	// competition — and the estimate-error histogram is excluded by
	// design: replays carry no fresh estimate.)
	cm, wm := cold.Metrics(), warm.Metrics()
	if cm.Queries != wm.Queries {
		t.Errorf("query counts differ: cold %d, warm %d", cm.Queries, wm.Queries)
	}
	if fmt.Sprint(cm.TacticWins) != fmt.Sprint(wm.TacticWins) {
		t.Errorf("tactic wins differ:\ncold %v\nwarm %v", cm.TacticWins, wm.TacticWins)
	}
	snap := warm.PlanCacheSnapshot()
	if snap.Frozen < 6 {
		t.Errorf("frozen plans = %d, want >= 6 (snapshot %+v)", snap.Frozen, snap.Plans)
	}
	if snap.Hits == 0 {
		t.Error("plan cache recorded no hits across five rounds")
	}
	if snap.Demotions != 0 {
		t.Errorf("unexpected demotions: %d", snap.Demotions)
	}
	tactics := map[string]bool{}
	for _, p := range snap.Plans {
		if p.Plan != "" {
			name := p.Plan
			if i := len(name); i > 0 {
				if j := indexByte(name, '('); j >= 0 {
					name = name[:j]
				}
			}
			tactics[name] = true
		}
	}
	if len(tactics) < 5 {
		t.Errorf("frozen tactic diversity = %d (%v), want >= 5", len(tactics), tactics)
	}
	if cold.PlanCacheSnapshot().Enabled {
		t.Error("cache-off DB reports an enabled plan cache")
	}
}

// TestPlanCacheWarmReplayIO pins what a frozen replay saves, in pages.
// Each shape runs promoteAfter times dynamically, then as often frozen,
// on 1024 frames and every time from an evicted pool, so both sides read
// the same data pages and differ by what only dynamic optimization
// pays: the estimation descents (Stats().EstimateIO; their pages are
// hits for the scan that follows) and, on an index's first use, the
// cluster-ratio sample. Totals are the pool's counters, not the query
// tracker's, so pages read outside the tracked retrieval count too.
func TestPlanCacheWarmReplayIO(t *testing.T) {
	db := buildCacheDB(t, Options{PoolFrames: 1024, PlanCache: PlanCacheConfig{Enable: true}})
	shapes := cacheShapes()
	var coldSetup int64
	for _, sh := range shapes {
		for run := 0; run < 2*promoteAfter; run++ {
			db.Pool().EvictAll()
			db.Pool().ResetStats()
			rows, st := runShape(t, db, sh)
			wantSetup, wantIO := sh.coldSetupIO, sh.frozenIO
			if run == 0 {
				wantIO = sh.coldIO
				coldSetup += st.EstimateIO
			}
			if run >= promoteAfter {
				wantSetup = 0
			}
			if io := db.Pool().Stats().IOCost(); st.Tactic != sh.tactic || len(rows) != sh.rows || st.EstimateIO != wantSetup || io != wantIO {
				t.Errorf("%s run %d: %s, %d rows, setup I/O %d, pool I/O %d; want %s, %d, %d, %d",
					sh.name, run, st.Tactic, len(rows), st.EstimateIO, io, sh.tactic, sh.rows, wantSetup, wantIO)
			}
		}
	}
	if snap := db.PlanCacheSnapshot(); snap.Frozen != len(shapes) || snap.Hits != int64(promoteAfter*len(shapes)) {
		t.Errorf("frozen plans %d, hits %d; want %d, %d", snap.Frozen, snap.Hits, len(shapes), promoteAfter*len(shapes))
	}
	if coldSetup != 16 {
		t.Errorf("summed cold setup I/O = %d, want 16 (against 0 frozen)", coldSetup)
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// TestPlanCacheDriftDemotion promotes a plan with a highly selective
// binding, then replays it with a binding that balloons the I/O: the
// replay must still be row-correct, but the drift detector must demote
// the plan so the next run re-enters dynamic competition.
func TestPlanCacheDriftDemotion(t *testing.T) {
	// Bounded pool: fetches miss, so drift is visible in real reads (on
	// an unbounded pool everything is a free hit and nothing can drift).
	db := buildCacheDB(t, Options{PoolFrames: 64, PlanCache: PlanCacheConfig{Enable: true}})
	narrow := cacheShape{name: "narrow", src: "SELECT * FROM FAMILIES WHERE AGE >= :lo", binds: Binds{"lo": 9990}}
	for i := 0; i < promoteAfter; i++ {
		runShape(t, db, narrow)
	}
	snap := db.PlanCacheSnapshot()
	if snap.Promotions != 1 || snap.Frozen != 1 {
		t.Fatalf("after warmup: promotions=%d frozen=%d (want 1/1)", snap.Promotions, snap.Frozen)
	}
	hitsBefore := snap.Hits

	// Same shape, catastrophic binding: the frozen plan walks the whole
	// index. Rows must still be exactly right (bounds are recomputed
	// from the live bindings; the restriction is re-checked per row).
	wide := cacheShape{name: "wide", src: narrow.src, binds: Binds{"lo": 0}}
	rows, st := runShape(t, db, wide)
	if len(rows) != cacheRows {
		t.Fatalf("replayed plan dropped rows: got %d, want %d", len(rows), cacheRows)
	}
	snap = db.PlanCacheSnapshot()
	if snap.Hits != hitsBefore+1 {
		t.Fatalf("wide run did not replay the frozen plan (hits %d -> %d)", hitsBefore, snap.Hits)
	}
	if snap.Demotions != 1 || snap.Frozen != 0 {
		t.Fatalf("drift not demoted: demotions=%d frozen=%d (replay io=%d)", snap.Demotions, snap.Frozen, st.IO.IOCost())
	}

	// Post-demotion the shape must re-run the competition, not replay.
	_, st = runShape(t, db, wide)
	after := db.PlanCacheSnapshot()
	if after.Hits != snap.Hits {
		t.Fatalf("post-demotion run still replayed (hits %d -> %d)", snap.Hits, after.Hits)
	}
	if st.Tactic == "" {
		t.Fatal("post-demotion run reported no tactic")
	}
}

// TestPlanCacheDropIndexInvalidation promotes a plan that drives
// through AGE_IX, drops the index, and checks the shape falls back to
// dynamic execution with correct results instead of replaying a plan
// against a ghost index.
func TestPlanCacheDropIndexInvalidation(t *testing.T) {
	db := buildCacheDB(t, Options{PlanCache: PlanCacheConfig{Enable: true}})
	sh := cacheShape{name: "narrow", src: "SELECT * FROM FAMILIES WHERE AGE >= :lo", binds: Binds{"lo": 9990}}
	var want int
	for i := 0; i < promoteAfter; i++ {
		rows, _ := runShape(t, db, sh)
		want = len(rows)
	}
	if snap := db.PlanCacheSnapshot(); snap.Frozen != 1 {
		t.Fatalf("shape did not promote: %+v", snap)
	}
	if err := db.DropIndex("FAMILIES", "AGE_IX"); err != nil {
		t.Fatal(err)
	}
	if snap := db.PlanCacheSnapshot(); snap.Entries != 0 {
		t.Fatalf("DropIndex left %d cache entries", snap.Entries)
	}
	rows, st := runShape(t, db, sh)
	if len(rows) != want {
		t.Fatalf("post-drop run: %d rows, want %d", len(rows), want)
	}
	if st.Tactic == "" {
		t.Fatal("post-drop run reported no tactic")
	}
	// Dropping a missing index errors cleanly.
	if err := db.DropIndex("FAMILIES", "AGE_IX"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

// TestPlanCacheStatsDriftInvalidation promotes a plan on a small table,
// then piles on enough inserts to cross the staleness threshold: the
// next lookup must invalidate instead of replaying against statistics
// that no longer describe the table.
func TestPlanCacheStatsDriftInvalidation(t *testing.T) {
	db := Open(Options{PlanCache: PlanCacheConfig{Enable: true}, Optimizer: core.Config{RaceFactor: -1}})
	if _, err := db.CreateTable("T",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "V", Type: expr.TypeInt},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Insert("T", i, i%10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateIndex("T", "V_IX", "V"); err != nil {
		t.Fatal(err)
	}
	sh := cacheShape{name: "v", src: "SELECT * FROM T WHERE V >= :lo", binds: Binds{"lo": 9}}
	for i := 0; i < promoteAfter; i++ {
		runShape(t, db, sh)
	}
	if snap := db.PlanCacheSnapshot(); snap.Frozen != 1 {
		t.Skipf("small-table shape did not promote (%+v); staleness covered elsewhere", snap)
	}
	// 100 rows at promotion -> threshold max(32, 20) = 32 mutations.
	for i := 0; i < 33; i++ {
		if err := db.Insert("T", 1000+i, 9); err != nil {
			t.Fatal(err)
		}
	}
	rows, _ := runShape(t, db, sh)
	if len(rows) != 10+33 {
		t.Fatalf("post-drift run: %d rows, want %d", len(rows), 43)
	}
	snap := db.PlanCacheSnapshot()
	if snap.Invalidations == 0 {
		t.Fatalf("stats drift did not invalidate: %+v", snap)
	}
}

// TestFeedbackSnapshotWiring checks the engine-level feedback switch:
// off by default (nil snapshot), and learning per-(table, index)
// corrections from completed retrievals when enabled. A retrieval
// teaches a correction when its background list completes over one
// index with an inexact estimate: the clustered ID range below.
func TestFeedbackSnapshotWiring(t *testing.T) {
	off := buildCacheDB(t, Options{})
	runShape(t, off, cacheShapes()[3])
	if s := off.FeedbackSnapshot(); s != nil {
		t.Fatalf("feedback off, snapshot = %v", s)
	}

	on := buildCacheDB(t, Options{EnableFeedback: true})
	idRange := cacheShape{name: "id-range", src: "SELECT * FROM FAMILIES WHERE ID >= :lo", binds: Binds{"lo": 15000}}
	for i := 0; i < 3; i++ {
		for _, sh := range append(cacheShapes(), idRange) {
			runShape(t, on, sh)
		}
	}
	s := on.FeedbackSnapshot()
	if len(s) == 0 {
		t.Fatal("feedback on, no corrections learned after 24 retrievals")
	}
	for _, c := range s {
		if c.Table != "FAMILIES" {
			t.Errorf("correction for unexpected table %q", c.Table)
		}
	}
}
