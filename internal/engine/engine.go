// Package engine is the public façade of the reproduction: an embedded
// database with the paper's dynamic single-table optimizer as its
// executor, plus the traditional static optimizer as a frozen baseline.
//
// Typical use:
//
//	db := engine.Open(engine.Options{})
//	tab, _ := db.CreateTable("FAMILIES",
//	    catalog.Column{Name: "ID", Type: expr.TypeInt},
//	    catalog.Column{Name: "AGE", Type: expr.TypeInt})
//	db.CreateIndex("FAMILIES", "AGE_IX", "AGE")
//	...load rows...
//	stmt, _ := db.PrepareContext(ctx, "SELECT * FROM FAMILIES WHERE AGE >= :A1")
//	res, _ := stmt.QueryContext(ctx, engine.Binds{"A1": 30})
//	for { row, ok, _ := res.Next(); if !ok { break }; ... }
//
// Every Stmt.QueryContext run re-optimizes dynamically with the current
// bindings; Stmt.Freeze produces the static baseline that keeps one
// plan forever.
//
// A DB and its prepared Stmts are safe for concurrent use: any number
// of goroutines may call Stmt.QueryContext / DB.QueryContext at once
// (each call gets its own Result, which is itself single-goroutine), and
// writes serialize per table. Per-query I/O attribution stays exact under
// concurrency because every scan charges a private storage.Tracker
// rather than differencing the shared pool's global counters. A
// retrieval must not overlap a mutation of the same table; scheduling
// that is the application's job. So is capping how many queries run at
// once: the engine admits every call, and a caller that wants a limit
// holds its own semaphore around them.
package engine

import (
	"context"
	"fmt"
	"sync"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/feedback"
	"rdbdyn/internal/planner"
	"rdbdyn/internal/sql"
	"rdbdyn/internal/storage"
)

// Options configures a database instance.
type Options struct {
	// PageSize in bytes (default storage.DefaultPageSize).
	PageSize int
	// PoolFrames caps the buffer pool (0 = unbounded). Bounded pools
	// make random fetches genuinely expensive, as on the paper's
	// hardware.
	PoolFrames int
	// Optimizer tunes the dynamic optimizer (zero value = defaults).
	Optimizer core.Config
	// EnableFeedback turns on the estimation feedback loop: each
	// completed dynamic retrieval folds its observed cardinality into
	// per-(table, index) correction factors that scale future inexact
	// estimates. Off by default — the paper's estimator (and the
	// experiment suite) runs uncorrected.
	EnableFeedback bool
	// PlanCache configures the frozen-plan cache (see PlanCacheConfig).
	// Disabled by default.
	PlanCache PlanCacheConfig
}

// DB is an embedded database instance.
type DB struct {
	disk  *storage.Disk
	pool  *storage.BufferPool
	cat   *catalog.Catalog
	opt   *core.Optimizer
	fb    *feedback.Registry // nil unless Options.EnableFeedback
	plans *planCache         // nil unless Options.PlanCache.Enable
}

// Open creates an empty database.
func Open(opts Options) *DB {
	disk := storage.NewDisk(opts.PageSize)
	pool := storage.NewBufferPool(disk, opts.PoolFrames)
	db := &DB{disk: disk, pool: pool, cat: catalog.New(pool)}
	if opts.EnableFeedback {
		db.fb = feedback.New(0)
		opts.Optimizer.Feedback = db.fb
	}
	// Zero-valued Config fields are filled in field-wise by the
	// optimizer (core.Config.WithDefaults), so a caller tuning one knob
	// keeps the paper defaults for every other.
	db.opt = core.NewOptimizer(opts.Optimizer)
	if opts.PlanCache.Enable {
		db.plans = newPlanCache(opts.PlanCache)
	}
	return db
}

// Catalog exposes the schema registry.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Pool exposes the buffer pool (I/O statistics live here).
func (db *DB) Pool() *storage.BufferPool { return db.pool }

// Optimizer exposes the dynamic optimizer for direct core.Query use.
func (db *DB) Optimizer() *core.Optimizer { return db.opt }

// Metrics snapshots the optimizer's cumulative competition telemetry:
// per-tactic win counts, abandonments, strategy switches, and the
// estimate-error histogram. Safe to call concurrently with queries.
func (db *DB) Metrics() core.MetricsSnapshot { return db.opt.Metrics().Snapshot() }

// FeedbackSnapshot reports the learned estimation correction factors,
// sorted by (table, index). Nil when Options.EnableFeedback is off.
func (db *DB) FeedbackSnapshot() []feedback.Correction { return db.fb.Snapshot() }

// PlanCacheSnapshot reports the frozen-plan cache's entries and
// hit/promotion/demotion counters. Enabled=false (and all zeroes) when
// the cache is off.
func (db *DB) PlanCacheSnapshot() PlanCacheSnapshot {
	if db.plans == nil {
		return PlanCacheSnapshot{}
	}
	return db.plans.snapshot()
}

// CreateTable registers a table.
func (db *DB) CreateTable(name string, cols ...catalog.Column) (*catalog.Table, error) {
	return db.cat.CreateTable(name, cols)
}

// CreateIndex builds an index on an existing table.
func (db *DB) CreateIndex(table, index string, cols ...string) (*catalog.Index, error) {
	tab, err := db.cat.Table(table)
	if err != nil {
		return nil, err
	}
	return tab.CreateIndex(index, cols...)
}

// DropIndex removes an index and eagerly invalidates every cached plan
// for the table: a frozen plan referencing the dropped index must never
// be replayed. (The cache's version check would also catch it lazily;
// eager invalidation keeps the window at zero.)
func (db *DB) DropIndex(table, index string) error {
	tab, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	if err := tab.DropIndex(index); err != nil {
		return err
	}
	if db.plans != nil {
		db.plans.invalidateTable(table)
	}
	return nil
}

// Insert adds a row to a table. Values are converted like Binds.
func (db *DB) Insert(table string, values ...any) error {
	tab, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	row := make(expr.Row, len(values))
	for i, v := range values {
		row[i], err = toValue(v)
		if err != nil {
			return err
		}
	}
	_, err = tab.Insert(row)
	return err
}

// Binds maps host-variable names to Go values (int, int64, float64,
// string, bool, or expr.Value).
type Binds map[string]any

func (b Binds) toBindings() (expr.Bindings, error) {
	if b == nil {
		return nil, nil
	}
	out := make(expr.Bindings, len(b))
	for k, v := range b {
		val, err := toValue(v)
		if err != nil {
			return nil, fmt.Errorf("engine: bind %s: %w", k, err)
		}
		out[k] = val
	}
	return out, nil
}

func toValue(v any) (expr.Value, error) {
	switch t := v.(type) {
	case nil:
		return expr.Null(), nil
	case int:
		return expr.Int(int64(t)), nil
	case int32:
		return expr.Int(int64(t)), nil
	case int64:
		return expr.Int(t), nil
	case float64:
		return expr.Float(t), nil
	case string:
		return expr.Str(t), nil
	case bool:
		return expr.Bool(t), nil
	case expr.Value:
		return t, nil
	default:
		return expr.Null(), fmt.Errorf("unsupported Go type %T", v)
	}
}

// Stmt is a prepared statement executed with dynamic optimization: each
// QueryContext call re-plans with the run's bindings — unless the plan
// cache has promoted this statement's shape, in which case the frozen
// plan is replayed without re-running the competition.
type Stmt struct {
	db       *DB
	compiled *sql.Compiled
	shape    string // plan-cache key; "" when the cache is off
}

// PrepareContext parses and compiles a statement, honoring ctx: an
// already-cancelled or expired context fails before any parse or
// compile work.
func (db *DB) PrepareContext(ctx context.Context, src string) (*Stmt, error) {
	stmt, err := sql.ParseContext(ctx, src)
	if err != nil {
		return nil, err
	}
	c, err := sql.CompileContext(ctx, db.cat, stmt)
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, compiled: c}
	if db.plans != nil {
		s.shape = c.ShapeKey()
	}
	return s, nil
}

// CoreQuery returns a copy of the compiled core query (no bindings),
// for plan inspection and direct core-level execution. Nil for
// multi-table statements — use JoinQuery.
func (s *Stmt) CoreQuery() *core.Query {
	if s.compiled.Query == nil {
		return nil
	}
	q := *s.compiled.Query
	return &q
}

// JoinQuery returns a copy of the compiled multi-table query (no
// bindings), or nil for single-table statements.
func (s *Stmt) JoinQuery() *core.JoinQuery {
	if s.compiled.Join == nil {
		return nil
	}
	jq := *s.compiled.Join
	return &jq
}

// QueryContext runs the statement with the given bindings under the
// dynamic optimizer; EXPLAIN statements return the plan description
// instead of data rows. Cancellation and deadline of ctx stop the
// retrieval within one simulated page I/O (the error surfaces from
// Result.Next), and a core.WithIOBudget budget carried by ctx bounds
// the query's attributed I/O.
func (s *Stmt) QueryContext(ctx context.Context, binds Binds) (*Result, error) {
	bb, err := binds.toBindings()
	if err != nil {
		return nil, err
	}
	if s.compiled.Join != nil {
		return s.queryJoin(ctx, bb)
	}
	q := *s.compiled.Query
	q.Binds = bb
	ec := core.NewExecCtx(ctx, 0)
	if s.compiled.Explain {
		return s.explain(ec, &q, s.compiled.Analyze)
	}
	var rows core.Rows
	var onDone func(st *core.RetrievalStats, drained bool, err error)
	if cache := s.db.plans; cache != nil {
		if plan := cache.lookup(s.shape, q.Table); plan != nil {
			// Warm path: replay the frozen plan, skipping estimation and
			// competition. Drift demotion watches the replay's I/O.
			rows = s.db.opt.RunPlan(ec, &q, plan)
			shape := s.shape
			onDone = func(st *core.RetrievalStats, _ bool, err error) {
				if core.IsCancellation(err) {
					return // deadline pressure is not the plan's fault
				}
				cache.observeFrozen(shape, st, err)
			}
		} else {
			// Cold path: dynamic competition, with the outcome counted
			// toward promotion once the result fully drains.
			rows = s.db.opt.RunExec(ec, &q)
			shape, tab := s.shape, q.Table
			onDone = func(st *core.RetrievalStats, drained bool, err error) {
				cache.observeDynamic(shape, tab, st, drained, err)
			}
		}
	} else {
		rows = s.db.opt.RunExec(ec, &q)
	}
	res := newResult(s.compiled, rows)
	res.onDone = onDone
	return res, nil
}

// queryJoin executes a multi-table statement through the dynamic join
// path. Join plans are never frozen, so the plan cache is bypassed
// entirely (the retrieval's own trace carries the capture rejection).
func (s *Stmt) queryJoin(ctx context.Context, bb expr.Bindings) (*Result, error) {
	jq := *s.compiled.Join
	jq.Binds = bb
	ec := core.NewExecCtx(ctx, 0)
	if s.compiled.Explain {
		return s.explainJoin(ec, &jq, s.compiled.Analyze)
	}
	return newResult(s.compiled, s.db.opt.RunJoin(ec, &jq, nil)), nil
}

// explainJoin describes the dynamic join run as (aspect, detail) rows:
// the chosen order and operators, per-stage estimated-vs-actual
// cardinality under ANALYZE, the competition events, and the static
// optimizer's frozen join plan for contrast.
func (s *Stmt) explainJoin(ec *core.ExecCtx, jq *core.JoinQuery, analyze bool) (*Result, error) {
	var st core.RetrievalStats
	var delivered int64
	if analyze {
		var err error
		if delivered, st, err = finishExplained(s.db.opt.RunJoin(ec, jq, nil), true); err != nil {
			return nil, err
		}
	} else {
		plan, err := s.db.opt.PlanJoin(ec, jq)
		if err != nil {
			return nil, err
		}
		st.Tactic = "join"
		st.Strategy = plan.Describe(jq)
	}
	out := [][2]string{
		{"goal", jq.Goal.String()},
		{"tactic", st.Tactic},
		{"join plan", st.Strategy},
	}
	if analyze {
		out = append(out,
			[2]string{"rows", fmt.Sprintf("%d", delivered)},
			[2]string{"attributed I/O", fmt.Sprintf("%d", st.IO.IOCost())},
			[2]string{"estimation I/O", fmt.Sprintf("%d", st.EstimateIO)},
		)
		if st.SortAvoided {
			out = append(out, [2]string{"order", "plan order satisfies ORDER BY; final materialized sort skipped"})
		}
		for i, sg := range st.JoinStages {
			detail := fmt.Sprintf("%s est %.0f rows, actual %d, I/O %d", sg.Operator, sg.EstRows, sg.ActualRows, sg.IO)
			if sg.Index != "" {
				detail += " via " + sg.Index
			}
			if sg.Reoptimized {
				detail += " [re-optimized]"
			}
			out = append(out, [2]string{fmt.Sprintf("stage %d:%s", i, sg.Table), detail})
		}
		for _, ev := range st.Events {
			out = append(out, [2]string{"event:" + ev.Kind.String(), ev.String()})
		}
	}
	var staticPlan string
	switch plan, err := planner.PrepareJoin(ec, jq); {
	case err == nil:
		staticPlan = plan.String()
	case core.IsCancellation(err):
		return nil, err
	default:
		staticPlan = "error: " + err.Error()
	}
	out = append(out, [2]string{"static optimizer would freeze", staticPlan})
	return explainResult(out, &st), nil
}

// finishExplained ends an explained retrieval: under ANALYZE it is
// drained to completion first, then closed either way. It returns the
// rows delivered and the retrieval's final stats.
func finishExplained(rows core.Rows, analyze bool) (delivered int64, st core.RetrievalStats, err error) {
	if analyze {
		for {
			_, ok, err := rows.Next()
			if err != nil {
				rows.Close()
				return 0, st, err
			}
			if !ok {
				break
			}
			delivered++
		}
	}
	st = rows.Stats()
	return delivered, st, rows.Close()
}

// explainResult wraps (aspect, detail) pairs as an EXPLAIN result.
func explainResult(out [][2]string, st *core.RetrievalStats) *Result {
	exp := make([]expr.Row, len(out))
	for i, kv := range out {
		exp[i] = expr.Row{expr.Str(kv[0]), expr.Str(kv[1])}
	}
	return &Result{columns: []string{"aspect", "detail"}, explain: exp, expStat: st}
}

// explain plans the retrieval with the current bindings and reports the
// decision as (aspect, detail) rows — the typed competition events plus
// the static optimizer's frozen choice for contrast. Plain EXPLAIN
// closes the retrieval without executing the productive stages; EXPLAIN
// ANALYZE drains it to completion first, so the rows also show what
// actually happened (winning strategy, rows delivered, attributed I/O)
// and the event stream covers the whole competition.
func (s *Stmt) explain(ec *core.ExecCtx, q *core.Query, analyze bool) (*Result, error) {
	delivered, st, err := finishExplained(s.db.opt.RunExec(ec, q), analyze)
	if err != nil {
		return nil, err
	}
	out := [][2]string{
		{"goal", q.EffectiveGoal().String()},
		{"tactic", st.Tactic},
	}
	if analyze {
		out = append(out,
			[2]string{"strategy", st.Strategy},
			[2]string{"rows", fmt.Sprintf("%d", delivered)},
			[2]string{"attributed I/O", fmt.Sprintf("%d", st.IO.IOCost())},
		)
	}
	out = append(out, [2]string{"estimation I/O", fmt.Sprintf("%d", st.EstimateIO)})
	for _, ev := range st.Events {
		out = append(out, [2]string{"event:" + ev.Kind.String(), ev.String()})
	}
	var staticPlan string
	if plan, err := planner.Prepare(q); err == nil {
		staticPlan = plan.String()
	} else {
		staticPlan = "error: " + err.Error()
	}
	out = append(out, [2]string{"static optimizer would freeze", staticPlan})
	return explainResult(out, &st), nil
}

// Freeze produces the static-optimizer baseline for this statement. If
// binds is non-nil, the plan is chosen by estimating with those values
// ("parameter sniffing"); otherwise compile-time default selectivities
// apply. The plan survives until the table underneath it changes shape
// (an index appears or disappears) or drifts far enough from the
// statistics it was estimated against; then the next QueryContext
// re-prepares it with the same sniffed bindings.
//
// The whole estimation runs under the table's read-lock: the planner
// descends live B-trees, and a concurrent Insert splitting a page
// mid-descent would otherwise corrupt the estimate (or worse).
func (s *Stmt) Freeze(binds Binds) (*FrozenStmt, error) {
	bb, err := binds.toBindings()
	if err != nil {
		return nil, err
	}
	if s.compiled.Join != nil {
		return nil, fmt.Errorf("engine: multi-table statements cannot be frozen; use planner.PrepareJoin and Optimizer.RunJoin for the static baseline")
	}
	tab := s.compiled.Query.Table
	unlock := tab.RLock()
	defer unlock()
	plan, err := freezePlan(s.compiled.Query, bb)
	if err != nil {
		return nil, err
	}
	return &FrozenStmt{
		db:       s.db,
		compiled: s.compiled,
		Plan:     plan,
		sniffed:  bb,
		stamp:    stampOf(tab),
	}, nil
}

func freezePlan(q *core.Query, bb expr.Bindings) (*planner.Plan, error) {
	if bb != nil {
		return planner.PrepareSniffing(q, bb)
	}
	return planner.Prepare(q)
}

// FrozenStmt executes one frozen plan for every run — the traditional
// static optimizer the paper improves upon. Unlike the original, it is
// no longer allowed to hold a plan forever against a changing table:
// each QueryContext revalidates the plan against the table's schema
// version and stats epoch, and re-prepares (with the original sniffed
// bindings) when either has moved. An unchanged table re-freezes
// nothing, so the baseline's behavior on static data is untouched.
type FrozenStmt struct {
	db       *DB
	compiled *sql.Compiled
	Plan     *planner.Plan

	mu      sync.Mutex
	sniffed expr.Bindings // bindings the plan was sniffed with (nil = defaults)
	stamp   planStamp     // table state at freeze
}

// ensureFresh returns the plan to execute, re-preparing it first if the
// table's schema changed (index created or dropped) or its statistics
// drifted past the staleness threshold since the plan was frozen.
func (f *FrozenStmt) ensureFresh() (*planner.Plan, error) {
	tab := f.compiled.Query.Table
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stamp.fresh(tab) {
		return f.Plan, nil
	}
	unlock := tab.RLock()
	defer unlock()
	plan, err := freezePlan(f.compiled.Query, f.sniffed)
	if err != nil {
		return nil, err
	}
	f.Plan = plan
	f.stamp = stampOf(tab)
	return plan, nil
}

// QueryContext runs the frozen plan with the given bindings, with
// the same cancellation and budget semantics as
// Stmt.QueryContext, on the database's own optimizer — so a frozen
// query shows in DB.Metrics and reaches Options.Optimizer.Trace like
// any other.
func (f *FrozenStmt) QueryContext(ctx context.Context, binds Binds) (*Result, error) {
	bb, err := binds.toBindings()
	if err != nil {
		return nil, err
	}
	plan, err := f.ensureFresh()
	if err != nil {
		return nil, err
	}
	q := *f.compiled.Query
	q.Binds = bb
	return newResult(f.compiled, f.db.opt.RunPlan(core.NewExecCtx(ctx, 0), &q, plan.Strategy)), nil
}

// QueryContext is PrepareContext + Stmt.QueryContext in one call,
// honoring ctx throughout parse, compile, and execution.
func (db *DB) QueryContext(ctx context.Context, src string, binds Binds) (*Result, error) {
	stmt, err := db.PrepareContext(ctx, src)
	if err != nil {
		return nil, err
	}
	return stmt.QueryContext(ctx, binds)
}

// Result iterates a statement's rows. For COUNT(*) statements the
// single result row holds the count; for EXISTS statements it holds a
// boolean; for EXPLAIN statements the rows describe the plan.
type Result struct {
	rows    core.Rows
	columns []string
	count   bool
	exists  bool
	agg     *sql.Aggregate
	counted bool
	explain []expr.Row
	expPos  int
	expStat *core.RetrievalStats

	closed   bool
	closeErr error

	// Plan-cache observation: onDone fires exactly once, from the first
	// Close, with the retrieval's final stats. drained is set when the
	// underlying retrieval was read to exhaustion — only such runs carry
	// trustworthy I/O totals for promotion. (EXISTS results stop at the
	// first row by design and therefore never promote.)
	onDone  func(st *core.RetrievalStats, drained bool, err error)
	drained bool
	iterErr error
}

func newResult(c *sql.Compiled, rows core.Rows) *Result {
	r := &Result{rows: rows, count: c.CountStar, exists: c.Exists, agg: c.Agg}
	switch {
	case c.Exists:
		r.columns = []string{"EXISTS"}
	case c.CountStar:
		r.columns = []string{"COUNT(*)"}
	case c.Agg != nil:
		r.columns = []string{c.Agg.Kind + "(" + c.Agg.Col + ")"}
	case c.Join != nil:
		r.columns = c.JoinColumnNames()
	case c.Query.Projection == nil:
		tab := c.Query.Table
		for _, col := range tab.Columns {
			r.columns = append(r.columns, col.Name)
		}
	default:
		tab := c.Query.Table
		for _, ci := range c.Query.Projection {
			r.columns = append(r.columns, tab.Columns[ci].Name)
		}
	}
	return r
}

// Columns returns the result column names.
func (r *Result) Columns() []string { return r.columns }

// Next returns the next row; ok=false at end of data.
func (r *Result) Next() (expr.Row, bool, error) {
	if r.explain != nil {
		if r.expPos >= len(r.explain) {
			return nil, false, nil
		}
		row := r.explain[r.expPos]
		r.expPos++
		return row, true, nil
	}
	if r.exists {
		if r.counted {
			return nil, false, nil
		}
		r.counted = true
		_, ok, err := r.rows.Next()
		if err != nil {
			r.iterErr = err
			return nil, false, err
		}
		return expr.Row{expr.Bool(ok)}, true, nil
	}
	if r.agg != nil {
		if r.counted {
			return nil, false, nil
		}
		r.counted = true
		v, err := r.aggregate()
		if err != nil {
			r.iterErr = err
			return nil, false, err
		}
		r.drained = true
		return expr.Row{v}, true, nil
	}
	if r.count {
		if r.counted {
			return nil, false, nil
		}
		var n int64
		for {
			_, ok, err := r.rows.Next()
			if err != nil {
				r.iterErr = err
				return nil, false, err
			}
			if !ok {
				break
			}
			n++
		}
		r.counted = true
		r.drained = true
		return expr.Row{expr.Int(n)}, true, nil
	}
	row, ok, err := r.rows.Next()
	switch {
	case err != nil:
		r.iterErr = err
	case !ok:
		r.drained = true
	}
	return row, ok, err
}

// Close releases the retrieval. It is idempotent: every call after the
// first is a no-op returning the first call's error, so the retrieval
// is released exactly once no matter how many paths (All's error
// handling, deferred Close, explicit Close) reach it.
func (r *Result) Close() error {
	if r.closed {
		return r.closeErr
	}
	r.closed = true
	if r.rows != nil {
		r.closeErr = r.rows.Close()
	}
	if r.onDone != nil && r.rows != nil {
		st := r.rows.Stats()
		err := r.iterErr
		if err == nil {
			err = r.closeErr
		}
		r.onDone(&st, r.drained, err)
	}
	return r.closeErr
}

// Stats reports what the executor did. For EXPLAIN results these are
// the stats of the explained retrieval (complete under ANALYZE, the
// planning prefix otherwise).
func (r *Result) Stats() core.RetrievalStats {
	if r.rows == nil {
		if r.expStat != nil {
			return *r.expStat
		}
		return core.RetrievalStats{Tactic: "explain"}
	}
	return r.rows.Stats()
}

// All drains the result into a slice and closes it.
func (r *Result) All() ([]expr.Row, error) {
	var out []expr.Row
	for {
		row, ok, err := r.Next()
		if err != nil {
			r.Close()
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	return out, r.Close()
}

// Bindings converts Binds to expression bindings (exported for harness
// code that drives core-level execution with the same values).
func (b Binds) Bindings() (expr.Bindings, error) { return b.toBindings() }

// Exec runs a DML statement (INSERT INTO ... VALUES, UPDATE, DELETE
// FROM ...) and returns the number of rows affected. UPDATE and DELETE
// find their victims with a RID-delivering dynamic retrieval of the
// restriction (victims), collected completely before the first row
// changes, and maintain every index.
func (db *DB) Exec(src string, binds Binds) (int, error) {
	stmt, err := sql.ParseStatement(src)
	if err != nil {
		return 0, err
	}
	bb, err := binds.toBindings()
	if err != nil {
		return 0, err
	}
	switch t := stmt.(type) {
	case *sql.InsertStmt:
		return db.execInsert(t, bb)
	case *sql.DeleteStmt:
		return db.execDelete(t, bb)
	case *sql.UpdateStmt:
		return db.execUpdate(t, bb)
	default:
		return 0, fmt.Errorf("engine: Exec expects INSERT, UPDATE, or DELETE; use Query for SELECT")
	}
}

func (db *DB) execInsert(stmt *sql.InsertStmt, bb expr.Bindings) (int, error) {
	tab, err := db.cat.Table(stmt.Table)
	if err != nil {
		return 0, err
	}
	inserted := 0
	for _, nodes := range stmt.Rows {
		row := make(expr.Row, len(nodes))
		for i, nd := range nodes {
			if row[i], err = dmlValue(nd, bb, "VALUES entry"); err != nil {
				return inserted, err
			}
		}
		if _, err := tab.Insert(row); err != nil {
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

func (db *DB) execDelete(stmt *sql.DeleteStmt, bb expr.Bindings) (int, error) {
	tab, err := db.cat.Table(stmt.Table)
	if err != nil {
		return 0, err
	}
	return db.mutate(tab, stmt.Where, bb, func(expr.Row) expr.Row { return nil })
}

// mutate runs the two phases of an UPDATE or DELETE (catalog.Table.Mutate)
// on tab's rows that pass where: the dynamic optimizer collects the
// victims, then change is applied to each — nil deletes the row.
func (db *DB) mutate(tab *catalog.Table, where sql.Node, bb expr.Bindings, change func(expr.Row) expr.Row) (int, error) {
	restriction, err := sql.CompileExpr(db.cat, tab.Name, where)
	if err != nil {
		return 0, err
	}
	return tab.Mutate(func() ([]storage.RID, error) { return db.victims(tab, restriction, bb) }, change)
}

// victims collects the RIDs of tab's rows that pass restriction: the
// paper's retrieval component ends in a RID list, so this is an ordinary
// run of the dynamic optimizer — estimation, competition, governor,
// trace events, metrics — that delivers RIDs in place of columns and
// projects nothing, which makes an index over the restriction's columns
// self-sufficient. A restriction no index bounds ends in a Tscan through
// the same call.
func (db *DB) victims(tab *catalog.Table, restriction expr.Expr, bb expr.Bindings) ([]storage.RID, error) {
	q := &core.Query{Table: tab, Restriction: restriction, Binds: bb, Projection: []int{}, RIDs: true}
	rows := db.opt.RunExec(nil, q)
	defer rows.Close()
	var victims []storage.RID
	for {
		row, ok, err := rows.Next()
		if err != nil || !ok {
			return victims, err
		}
		page := storage.PageID{File: tab.Heap.File(), No: storage.PageNo(row[0].I)}
		victims = append(victims, storage.RID{Page: page, Slot: uint16(row[1].I)})
	}
}

// aggregate drains the retrieval computing the requested aggregate.
// NULLs are skipped; an empty input yields NULL (and 0 for SUM over an
// integer column, matching common SQL engines is NOT attempted — NULL
// keeps the semantics simple and explicit).
func (r *Result) aggregate() (expr.Value, error) {
	var (
		sum      float64
		sawInt   = true
		min, max expr.Value
		count    int64
	)
	for {
		row, ok, err := r.rows.Next()
		if err != nil {
			return expr.Null(), err
		}
		if !ok {
			break
		}
		v := row[0]
		if v.IsNull() {
			continue
		}
		f, numOK := v.AsFloat()
		if !numOK {
			return expr.Null(), fmt.Errorf("engine: %s over non-numeric value %s", r.agg.Kind, v)
		}
		if v.T != expr.TypeInt {
			sawInt = false
		}
		sum += f
		if count == 0 || expr.Compare(v, min) < 0 {
			min = v
		}
		if count == 0 || expr.Compare(v, max) > 0 {
			max = v
		}
		count++
	}
	if count == 0 {
		return expr.Null(), nil
	}
	switch r.agg.Kind {
	case "SUM":
		if sawInt {
			return expr.Int(int64(sum)), nil
		}
		return expr.Float(sum), nil
	case "AVG":
		return expr.Float(sum / float64(count)), nil
	case "MIN":
		return min, nil
	case "MAX":
		return max, nil
	default:
		return expr.Null(), fmt.Errorf("engine: unknown aggregate %s", r.agg.Kind)
	}
}

func (db *DB) execUpdate(stmt *sql.UpdateStmt, bb expr.Bindings) (int, error) {
	tab, err := db.cat.Table(stmt.Table)
	if err != nil {
		return 0, err
	}
	cols := make([]int, len(stmt.Sets))
	vals := make(expr.Row, len(stmt.Sets))
	for i, sc := range stmt.Sets {
		if cols[i], err = tab.ColumnIndex(sc.Col); err != nil {
			return 0, err
		}
		if vals[i], err = dmlValue(sc.Value, bb, "SET value"); err != nil {
			return 0, err
		}
	}
	return db.mutate(tab, stmt.Where, bb, func(row expr.Row) expr.Row {
		row = row.Clone()
		for i, c := range cols {
			row[c] = vals[i]
		}
		return row
	})
}

// dmlValue resolves a VALUES entry or SET value: a literal or a bound
// parameter, nothing else.
func dmlValue(nd sql.Node, bb expr.Bindings, what string) (expr.Value, error) {
	switch v := nd.(type) {
	case sql.LitNode:
		return v.V, nil
	case sql.ParamNode:
		if val, ok := bb[v.Name]; ok {
			return val, nil
		}
		return expr.Null(), fmt.Errorf("engine: unbound parameter :%s", v.Name)
	default:
		return expr.Null(), fmt.Errorf("engine: unsupported %s %T", what, nd)
	}
}
