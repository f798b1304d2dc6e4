package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/feedback"
)

// JoinScenarioResult is one row of BENCH_join.json: the same
// three-table join run statically (the plan chosen up front runs to
// completion, as a freezing optimizer would) and dynamically (staged
// execution with mid-flight re-optimization), on twin databases.
type JoinScenarioResult struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`

	StaticPlan    string  `json:"static_plan"`
	StaticIO      int64   `json:"static_io"`
	StaticMicros  float64 `json:"static_micros"`
	DynamicPlan   string  `json:"dynamic_plan"`
	DynamicIO     int64   `json:"dynamic_io"`
	DynamicMicros float64 `json:"dynamic_micros"`

	Rows            int     `json:"rows"`
	Reoptimizations int     `json:"reoptimizations"`
	IOReductionX    float64 `json:"io_reduction_x"`
}

// HashJoinResult is the hash_join series of BENCH_join.json: the same
// unindexed equi-key join run with each forced scan-based competitor
// and then dynamically, where the per-stage competition should settle
// on the build/probe hash join.
type HashJoinResult struct {
	SQL string `json:"sql"`

	NLPlan   string  `json:"nl_plan"`
	NLIO     int64   `json:"nl_io"`
	NLMicros float64 `json:"nl_micros"`

	INLPlan   string  `json:"inl_plan"`
	INLIO     int64   `json:"inl_io"`
	INLMicros float64 `json:"inl_micros"`

	DynamicPlan   string  `json:"dynamic_plan"`
	DynamicIO     int64   `json:"dynamic_io"`
	DynamicMicros float64 `json:"dynamic_micros"`

	Rows int `json:"rows"`
	// IOReductionX is attributed I/O of the best forced competitor over
	// the dynamic (hash-join) run.
	IOReductionX float64 `json:"io_reduction_x"`
}

// SortAvoidanceResult is the sort_avoidance series of BENCH_join.json:
// an ORDER BY join run with sort-order-aware planning against a twin
// with avoidance disabled. Both legs run the same stages, so their
// attributed I/O should tie; the aware leg skips the final materialized
// sort (a CPU saving the cost model prices at SortCostModel pages).
type SortAvoidanceResult struct {
	SQL string `json:"sql"`

	BaselinePlan   string  `json:"baseline_plan"`
	BaselineIO     int64   `json:"baseline_io"`
	BaselineMicros float64 `json:"baseline_micros"`

	AwarePlan   string  `json:"aware_plan"`
	AwareIO     int64   `json:"aware_io"`
	AwareMicros float64 `json:"aware_micros"`

	Rows          int     `json:"rows"`
	SortAvoided   bool    `json:"sort_avoided"`
	SortCostModel float64 `json:"sort_cost_model"`
}

// JoinResult is the JSON shape of BENCH_join.json.
type JoinResult struct {
	Customers   int     `json:"customers"`
	Orders      int     `json:"orders"`
	Items       int     `json:"items"`
	PoolFrames  int     `json:"pool_frames"`
	ReoptFactor float64 `json:"reopt_factor"`

	Scenarios []JoinScenarioResult `json:"scenarios"`

	// SkewedIOReductionX is the headline number: attributed I/O of the
	// static plan over the dynamic run under skewed statistics.
	SkewedIOReductionX float64 `json:"skewed_io_reduction_x"`

	HashJoin      *HashJoinResult      `json:"hash_join"`
	SortAvoidance *SortAvoidanceResult `json:"sort_avoidance"`
}

const joinBenchSQL = "SELECT CUST.NAME, ORD.QTY, ITEM.KIND FROM CUST JOIN ORD ON CUST.ID = ORD.CUST JOIN ITEM ON ORD.ITEM = ITEM.ID WHERE SEG = 0"

// newJoinBenchDB builds one CUST/ORD/ITEM database under a bounded
// buffer pool. SEG=0 covers 60% of customers, so the unsargable 10%
// guess already undershoots; the skewed scenario compounds it with a
// poisoned feedback correction.
func newJoinBenchDB(nCust, nOrd, nItem, frames int) (*engine.DB, error) {
	db := engine.Open(engine.Options{
		PoolFrames: frames,
		Optimizer:  core.Config{RaceFactor: -1},
	})
	if _, err := db.CreateTable("CUST",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "SEG", Type: expr.TypeInt},
		catalog.Column{Name: "NAME", Type: expr.TypeString},
	); err != nil {
		return nil, err
	}
	if _, err := db.CreateTable("ORD",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "CUST", Type: expr.TypeInt},
		catalog.Column{Name: "ITEM", Type: expr.TypeInt},
		catalog.Column{Name: "QTY", Type: expr.TypeInt},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	); err != nil {
		return nil, err
	}
	if _, err := db.CreateTable("ITEM",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "KIND", Type: expr.TypeInt},
	); err != nil {
		return nil, err
	}
	for _, ix := range [][3]string{
		{"CUST", "CUST_ID_IX", "ID"},
		{"ORD", "ORD_CUST_IX", "CUST"},
		{"ITEM", "ITEM_ID_IX", "ID"},
	} {
		if _, err := db.CreateIndex(ix[0], ix[1], ix[2]); err != nil {
			return nil, err
		}
	}
	pad := strings.Repeat("x", 400)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < nCust; i++ {
		seg := int(rng.Int63n(10))
		if seg < 6 {
			seg = 0
		}
		if err := db.Insert("CUST", i, seg, fmt.Sprintf("c%05d", i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nOrd; i++ {
		if err := db.Insert("ORD", i, int(rng.Int63n(int64(nCust))),
			int(rng.Int63n(int64(nItem))), 1+int(rng.Int63n(9)), pad); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nItem; i++ {
		if err := db.Insert("ITEM", i, int(rng.Int63n(5))); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// poisonedFeedback fabricates the skew: a learned correction claiming
// CUST whole-table guesses run 16x over, shrinking the driver estimate
// far below its true cardinality. The first sample adopts the ratio and
// the registry clamps it at the 1/16 floor.
func poisonedFeedback() *feedback.Registry {
	fb := feedback.New(0)
	fb.ObserveCardinality("CUST", "", 160, 10)
	return fb
}

// joinQueryFor compiles the bench SQL against db's catalog.
func joinQueryFor(db *engine.DB) (*core.JoinQuery, error) {
	stmt, err := db.Prepare(joinBenchSQL)
	if err != nil {
		return nil, err
	}
	jq := stmt.JoinQuery()
	if jq == nil {
		return nil, fmt.Errorf("join bench: %q did not compile to a join", joinBenchSQL)
	}
	return jq, nil
}

// runJoinLeg executes one leg on its own twin database with its own
// optimizer and (possibly poisoned) feedback registry. static=true
// plans once and replays that plan; static=false runs the full dynamic
// executor.
func runJoinLeg(nCust, nOrd, nItem, frames int, fb *feedback.Registry, static bool) (plan string, n int, io int64, micros float64, reopts int, err error) {
	db, err := newJoinBenchDB(nCust, nOrd, nItem, frames)
	if err != nil {
		return "", 0, 0, 0, 0, err
	}
	jq, err := joinQueryFor(db)
	if err != nil {
		return "", 0, 0, 0, 0, err
	}
	opt := core.NewOptimizer(core.Config{RaceFactor: -1, Feedback: fb})
	ec := core.NewExecCtx(context.Background(), 0)
	db.Pool().EvictAll()
	db.Pool().ResetStats()
	start := time.Now()
	var pinned *core.JoinPlan // nil = dynamic
	if static {
		if pinned, err = opt.PlanJoin(ec, jq); err != nil {
			return "", 0, 0, 0, 0, err
		}
	}
	rows := opt.RunJoin(ec, jq, pinned)
	for {
		_, ok, nerr := rows.Next()
		if nerr != nil {
			return "", 0, 0, 0, 0, nerr
		}
		if !ok {
			break
		}
		n++
	}
	micros = float64(time.Since(start).Microseconds())
	if cerr := rows.Close(); cerr != nil {
		return "", 0, 0, 0, 0, cerr
	}
	st := rows.Stats()
	for _, ev := range st.Events {
		if ev.Kind == core.EvJoinReoptimized {
			reopts++
		}
	}
	return st.Strategy, n, st.IO.IOCost(), micros, reopts, nil
}

// newHashJoinBenchDB builds the unindexed-equi-key schema: ORD's join
// key (CUST) deliberately has no index, so index-probe operators cannot
// serve the join, while the selective REGION restriction (1% of orders)
// gives the hash join a cheap index-assisted build. ORD rows are fat,
// so any plan that scans the whole orders heap pays for it.
func newHashJoinBenchDB(nCust, nOrd, frames int) (*engine.DB, error) {
	db := engine.Open(engine.Options{
		PoolFrames: frames,
		Optimizer:  core.Config{RaceFactor: -1},
	})
	if _, err := db.CreateTable("CUST",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "SEG", Type: expr.TypeInt},
		catalog.Column{Name: "NAME", Type: expr.TypeString},
	); err != nil {
		return nil, err
	}
	if _, err := db.CreateTable("ORD",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "CUST", Type: expr.TypeInt},
		catalog.Column{Name: "REGION", Type: expr.TypeInt},
		catalog.Column{Name: "QTY", Type: expr.TypeInt},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	); err != nil {
		return nil, err
	}
	for _, ix := range [][3]string{
		{"CUST", "CUST_ID_IX", "ID"},
		{"ORD", "ORD_REGION_IX", "REGION"},
	} {
		if _, err := db.CreateIndex(ix[0], ix[1], ix[2]); err != nil {
			return nil, err
		}
	}
	pad := strings.Repeat("x", 800)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < nCust; i++ {
		if err := db.Insert("CUST", i, int(rng.Int63n(5)), fmt.Sprintf("c%05d", i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nOrd; i++ {
		if err := db.Insert("ORD", i, int(rng.Int63n(int64(nCust))),
			i%100, 1+int(rng.Int63n(9)), pad); err != nil {
			return nil, err
		}
	}
	return db, nil
}

const hashJoinBenchSQL = "SELECT CUST.NAME, ORD.QTY FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE ORD.REGION = 3"

// runHashJoinLeg runs the hash_join series SQL on its own twin
// database. plan=nil runs the full dynamic competition; otherwise the
// forced plan replays without re-optimization.
func runHashJoinLeg(nCust, nOrd, frames int, plan *core.JoinPlan) (desc string, n int, io int64, micros float64, err error) {
	db, err := newHashJoinBenchDB(nCust, nOrd, frames)
	if err != nil {
		return "", 0, 0, 0, err
	}
	stmt, err := db.Prepare(hashJoinBenchSQL)
	if err != nil {
		return "", 0, 0, 0, err
	}
	jq := stmt.JoinQuery()
	if jq == nil {
		return "", 0, 0, 0, fmt.Errorf("hash-join bench: %q did not compile to a join", hashJoinBenchSQL)
	}
	opt := core.NewOptimizer(core.Config{RaceFactor: -1})
	ec := core.NewExecCtx(context.Background(), 0)
	db.Pool().EvictAll()
	db.Pool().ResetStats()
	start := time.Now()
	rows := opt.RunJoin(ec, jq, plan)
	for {
		_, ok, nerr := rows.Next()
		if nerr != nil {
			return "", 0, 0, 0, nerr
		}
		if !ok {
			break
		}
		n++
	}
	micros = float64(time.Since(start).Microseconds())
	if cerr := rows.Close(); cerr != nil {
		return "", 0, 0, 0, cerr
	}
	st := rows.Stats()
	return st.Strategy, n, st.IO.IOCost(), micros, nil
}

// runHashJoinSeries runs the forced nested-loop and index-probe
// competitors plus the dynamic leg and enforces the acceptance gate:
// the dynamic run must settle on hj and beat the best forced competitor
// by at least 3x attributed I/O.
func runHashJoinSeries(nCust, nOrd, frames int) (*HashJoinResult, error) {
	r := &HashJoinResult{SQL: hashJoinBenchSQL}
	// Forced nested loop: CUST drives, ORD rescanned as the inner.
	nlPlan := &core.JoinPlan{Stages: []core.JoinStagePlan{
		{Table: 0, Operator: "tscan", EstRows: float64(nCust)},
		{Table: 1, Operator: core.JoinOpNL, EstRows: 1},
	}}
	// Forced index probe: the restricted ORD side drives and probes CUST
	// through CUST_ID_IX — the best an index-nested-loop plan can do
	// when the join key itself is unindexed on ORD. (ridx degenerates to
	// inl here: the probe side carries no local restriction to bitmap.)
	inlPlan := &core.JoinPlan{Stages: []core.JoinStagePlan{
		{Table: 1, Operator: "tscan", EstRows: float64(nOrd) / 100},
		{Table: 0, Operator: core.JoinOpINL, Index: "CUST_ID_IX", EstRows: 1},
	}}
	var nNL, nINL, nDyn int
	var err error
	if r.NLPlan, nNL, r.NLIO, r.NLMicros, err = runHashJoinLeg(nCust, nOrd, frames, nlPlan); err != nil {
		return nil, fmt.Errorf("hash-join bench (nl): %w", err)
	}
	if r.INLPlan, nINL, r.INLIO, r.INLMicros, err = runHashJoinLeg(nCust, nOrd, frames, inlPlan); err != nil {
		return nil, fmt.Errorf("hash-join bench (inl): %w", err)
	}
	if r.DynamicPlan, nDyn, r.DynamicIO, r.DynamicMicros, err = runHashJoinLeg(nCust, nOrd, frames, nil); err != nil {
		return nil, fmt.Errorf("hash-join bench (dynamic): %w", err)
	}
	if nNL != nDyn || nINL != nDyn {
		return nil, fmt.Errorf("hash-join bench: row counts diverge (nl %d, inl %d, dynamic %d)", nNL, nINL, nDyn)
	}
	r.Rows = nDyn
	if !strings.Contains(r.DynamicPlan, ":"+core.JoinOpHJ) {
		return nil, fmt.Errorf("hash-join bench: dynamic plan %q did not pick hj", r.DynamicPlan)
	}
	best := r.NLIO
	if r.INLIO < best {
		best = r.INLIO
	}
	if r.DynamicIO > 0 {
		r.IOReductionX = float64(best) / float64(r.DynamicIO)
	}
	if r.IOReductionX < 3 {
		return nil, fmt.Errorf("hash-join bench: hj I/O %d is only %.2fx better than the best forced competitor %d (want >= 3x)",
			r.DynamicIO, r.IOReductionX, best)
	}
	return r, nil
}

// newSortAvoidBenchDB builds the fat two-table ORDER BY schema: both
// heaps span enough pages that the restricted driver genuinely prefers
// its ordering index and the probe side prefers inl over a heap-build
// hash join, so the cheapest plan is naturally order-preserving.
func newSortAvoidBenchDB(nCust, nOrd, frames int, disable bool) (*engine.DB, error) {
	db := engine.Open(engine.Options{
		PoolFrames: frames,
		Optimizer:  core.Config{RaceFactor: -1, DisableJoinSortAvoidance: disable},
	})
	if _, err := db.CreateTable("CUST",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "SEG", Type: expr.TypeInt},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	); err != nil {
		return nil, err
	}
	if _, err := db.CreateTable("ORD",
		catalog.Column{Name: "ID", Type: expr.TypeInt},
		catalog.Column{Name: "CUST", Type: expr.TypeInt},
		catalog.Column{Name: "PAD", Type: expr.TypeString},
	); err != nil {
		return nil, err
	}
	for _, ix := range [][3]string{{"CUST", "CUST_ID_IX", "ID"}, {"ORD", "ORD_CUST_IX", "CUST"}} {
		if _, err := db.CreateIndex(ix[0], ix[1], ix[2]); err != nil {
			return nil, err
		}
	}
	pad := strings.Repeat("x", 400)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < nCust; i++ {
		if err := db.Insert("CUST", i, i%5, pad); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nOrd; i++ {
		if err := db.Insert("ORD", i, int(rng.Int63n(int64(nCust))), pad); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// runSortAvoidLeg runs the ORDER BY join on its own twin database and
// returns the delivered rows rendered for order-sensitive comparison.
func runSortAvoidLeg(nCust, nOrd, frames, lim int, disable bool) (desc string, rowsOut []string, io int64, micros float64, avoided bool, err error) {
	db, err := newSortAvoidBenchDB(nCust, nOrd, frames, disable)
	if err != nil {
		return "", nil, 0, 0, false, err
	}
	src := fmt.Sprintf("SELECT CUST.ID, ORD.ID FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE CUST.ID < %d ORDER BY CUST.ID", lim)
	db.Pool().EvictAll()
	db.Pool().ResetStats()
	start := time.Now()
	res, err := db.Query(src, nil)
	if err != nil {
		return "", nil, 0, 0, false, err
	}
	all, err := res.All()
	if err != nil {
		return "", nil, 0, 0, false, err
	}
	micros = float64(time.Since(start).Microseconds())
	for _, row := range all {
		var b strings.Builder
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		rowsOut = append(rowsOut, b.String())
	}
	st := res.Stats()
	return st.Strategy, rowsOut, st.IO.IOCost(), micros, st.SortAvoided, nil
}

// runSortAvoidanceSeries runs the aware and disabled legs and enforces
// the gates: the aware plan must skip the sort, deliver the baseline's
// rows in identical order, and spend no more attributed I/O.
func runSortAvoidanceSeries(nCust, nOrd, frames, lim int) (*SortAvoidanceResult, error) {
	r := &SortAvoidanceResult{
		SQL: fmt.Sprintf("SELECT CUST.ID, ORD.ID FROM CUST JOIN ORD ON CUST.ID = ORD.CUST WHERE CUST.ID < %d ORDER BY CUST.ID", lim),
	}
	var baseRows, awareRows []string
	var err error
	var baseAvoided bool
	if r.BaselinePlan, baseRows, r.BaselineIO, r.BaselineMicros, baseAvoided, err = runSortAvoidLeg(nCust, nOrd, frames, lim, true); err != nil {
		return nil, fmt.Errorf("sort-avoidance bench (baseline): %w", err)
	}
	if r.AwarePlan, awareRows, r.AwareIO, r.AwareMicros, r.SortAvoided, err = runSortAvoidLeg(nCust, nOrd, frames, lim, false); err != nil {
		return nil, fmt.Errorf("sort-avoidance bench (aware): %w", err)
	}
	if baseAvoided {
		return nil, fmt.Errorf("sort-avoidance bench: baseline avoided the sort with avoidance disabled (%q)", r.BaselinePlan)
	}
	if !r.SortAvoided {
		return nil, fmt.Errorf("sort-avoidance bench: aware plan %q still sorted", r.AwarePlan)
	}
	if len(awareRows) == 0 || len(awareRows) != len(baseRows) {
		return nil, fmt.Errorf("sort-avoidance bench: aware %d rows, baseline %d", len(awareRows), len(baseRows))
	}
	for i := range awareRows {
		if awareRows[i] != baseRows[i] {
			return nil, fmt.Errorf("sort-avoidance bench: row %d differs (%q vs %q)", i, awareRows[i], baseRows[i])
		}
	}
	if r.AwareIO > r.BaselineIO {
		return nil, fmt.Errorf("sort-avoidance bench: aware I/O %d exceeds baseline %d", r.AwareIO, r.BaselineIO)
	}
	r.Rows = len(awareRows)
	r.SortCostModel = estimate.JoinSortCost(float64(len(awareRows)))
	return r, nil
}

// RunJoinBench measures dynamic join optimization against the static
// baseline on twin databases, under accurate and skewed statistics.
// Under accurate statistics both legs should land on the same plan and
// cost; under skewed statistics the static plan commits to an
// index-probe operator sized for the bogus estimate while the dynamic
// run notices the divergence at the first stage boundary, re-plans, and
// must finish with less attributed I/O.
func RunJoinBench(rows int) (*JoinResult, error) {
	nOrd := rows
	if nOrd <= 0 {
		nOrd = 4000
	}
	nCust := nOrd / 4
	if nCust < 16 {
		nCust = 16
	}
	const nItem = 50
	const frames = 128
	out := &JoinResult{
		Customers: nCust, Orders: nOrd, Items: nItem,
		PoolFrames:  frames,
		ReoptFactor: core.JoinReoptFactor,
	}

	scenarios := []struct {
		name string
		fb   func() *feedback.Registry
	}{
		{"accurate-stats", func() *feedback.Registry { return nil }},
		{"skewed-stats", poisonedFeedback},
	}
	for _, sc := range scenarios {
		r := JoinScenarioResult{Name: sc.name, SQL: joinBenchSQL}
		var err error
		var sn, dn int
		r.StaticPlan, sn, r.StaticIO, r.StaticMicros, _, err =
			runJoinLeg(nCust, nOrd, nItem, frames, sc.fb(), true)
		if err != nil {
			return nil, fmt.Errorf("join bench %s (static): %w", sc.name, err)
		}
		r.DynamicPlan, dn, r.DynamicIO, r.DynamicMicros, r.Reoptimizations, err =
			runJoinLeg(nCust, nOrd, nItem, frames, sc.fb(), false)
		if err != nil {
			return nil, fmt.Errorf("join bench %s (dynamic): %w", sc.name, err)
		}
		if sn != dn {
			return nil, fmt.Errorf("join bench %s: static delivered %d rows, dynamic %d", sc.name, sn, dn)
		}
		r.Rows = sn
		if r.DynamicIO > 0 {
			r.IOReductionX = float64(r.StaticIO) / float64(r.DynamicIO)
		}
		out.Scenarios = append(out.Scenarios, r)
		if sc.name == "skewed-stats" {
			if r.Reoptimizations == 0 {
				return nil, fmt.Errorf("join bench: skewed scenario never re-optimized (static %q, dynamic %q)", r.StaticPlan, r.DynamicPlan)
			}
			if r.DynamicIO >= r.StaticIO {
				return nil, fmt.Errorf("join bench: dynamic I/O %d did not beat static %d under skew", r.DynamicIO, r.StaticIO)
			}
			out.SkewedIOReductionX = r.IOReductionX
			if !strings.Contains(r.DynamicPlan, ":"+core.JoinOpHJ) {
				return nil, fmt.Errorf("join bench: skewed re-optimization did not switch into hj (dynamic %q)", r.DynamicPlan)
			}
		}
	}

	var err error
	if out.HashJoin, err = runHashJoinSeries(nCust, nOrd, frames); err != nil {
		return nil, err
	}
	sortCust := nOrd / 3
	if sortCust < 60 {
		sortCust = 60
	}
	lim := sortCust / 25
	if lim < 8 {
		lim = 8
	}
	if out.SortAvoidance, err = runSortAvoidanceSeries(sortCust, nOrd, frames, lim); err != nil {
		return nil, err
	}
	return out, nil
}
