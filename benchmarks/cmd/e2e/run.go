package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdbdyn/internal/core"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// failures counts every violation (engine error, oracle mismatch,
// invariant violation, leaked pin) and keeps the first few messages.
type failures struct {
	n    atomic.Int64
	mu   sync.Mutex
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n.Add(1)
	f.mu.Lock()
	if len(f.msgs) < 10 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// rowSink collects what the oracle comparison needs from one op's rows.
type rowSink struct {
	hashes []uint64
	keys   []int64 // ORDER BY keys in delivery order
}

// runner drives one workload against one database.
type runner struct {
	fx    *fixture
	db    *engine.DB
	ctx   context.Context
	fails *failures
	// rw is the reader/writer exclusion the engine documents as the
	// application's job ("a retrieval must not overlap a mutation of the
	// same table"): queries hold it shared from call to Close, DML
	// exclusively. Only workloads that write take it.
	rw      sync.RWMutex
	locking bool
}

// opResult is what one executed op reports back to the pass loop. rows
// is the number of rows delivered, the value of COUNT(*), or the rows a
// DML statement affected.
type opResult struct {
	rows         int
	first, total int64 // ns from call to first Next returning / to Close returning
}

// checkRow applies the op's inline expectations to one delivered row.
func (r *runner) checkRow(o *op, row expr.Row, n int, prevKey *int64) {
	if len(o.checks) > 0 {
		pass := !o.orChecks
		for _, c := range o.checks {
			ok := c.pos < len(row) && c.p.holds(row[c.pos].I)
			if o.orChecks && ok {
				pass = true
				break
			}
			if !o.orChecks && !ok {
				pass = false
				break
			}
		}
		if !pass {
			r.fails.add("%s: delivered row %v violates the restriction", o.sql, row)
		}
	}
	if o.orderPos >= 0 {
		k := row[o.orderPos].I
		if n > 0 && k < *prevKey {
			r.fails.add("%s: ORDER BY key %d after %d", o.sql, k, *prevKey)
		}
		*prevKey = k
	}
	if o.anyOf != nil {
		h := hashRow(row)
		known := false
		for _, w := range o.anyOf {
			known = known || w == h
		}
		if !known {
			r.fails.add("%s: row %v is not a version its owner wrote", o.sql, row)
		}
	}
}

func (r *runner) checkCount(o *op, n int) {
	if o.wantCount >= 0 && n != o.wantCount {
		r.fails.add("%s %v: %d rows, expected %d", o.sql, o.binds, n, o.wantCount)
	}
	if o.anyOf != nil && n > 1 {
		r.fails.add("%s: %d rows for one key", o.sql, n)
	}
}

// exec runs one op the way a caller would: DB.QueryContext, Next until
// exhausted, Close (DB.Exec for DML). sink and stats are nil in timed
// passes.
func (r *runner) exec(o *op, sink *rowSink, stats *core.RetrievalStats) opResult {
	var out opResult
	t0 := time.Now()
	if o.kind != opQuery {
		r.rw.Lock()
		n, err := r.db.Exec(o.sql, o.binds)
		r.rw.Unlock()
		out.total = int64(time.Since(t0))
		out.first, out.rows = out.total, n
		if err != nil {
			r.fails.add("%s: %v", o.sql, err)
			return out
		}
		r.checkCount(o, n)
		return out
	}
	if r.locking {
		r.rw.RLock()
		defer r.rw.RUnlock()
	}
	res, err := r.db.QueryContext(r.ctx, o.sql, o.binds)
	if err != nil {
		r.fails.add("%s: %v", o.sql, err)
		return out
	}
	out = r.drain(o, res, t0, sink)
	if stats != nil {
		*stats = res.Stats()
	}
	if err := res.Close(); err != nil {
		r.fails.add("%s: close: %v", o.sql, err)
	}
	out.total = int64(time.Since(t0))
	return out
}

// drain pulls every row, checking each, and stamps the first-row time.
func (r *runner) drain(o *op, res *engine.Result, t0 time.Time, sink *rowSink) opResult {
	var out opResult
	var prevKey int64
	count := o.spec != nil && o.spec.count
	for {
		row, ok, err := res.Next()
		if out.first == 0 {
			out.first = int64(time.Since(t0))
		}
		if err != nil {
			r.fails.add("%s: next: %v", o.sql, err)
			return out
		}
		if !ok {
			break
		}
		if count {
			out.rows = int(row[0].I) // the one delivered row holds the count
			continue
		}
		r.checkRow(o, row, out.rows, &prevKey)
		if sink != nil {
			sink.hashes = append(sink.hashes, hashRow(row))
			if o.orderPos >= 0 {
				sink.keys = append(sink.keys, row[o.orderPos].I)
			}
		}
		out.rows++
	}
	r.checkCount(o, out.rows)
	return out
}

// counters is the cumulative engine state the count-type layer metrics
// are deltas of.
type counters struct {
	pool    storage.IOStats
	metrics core.MetricsSnapshot
	cache   engine.PlanCacheSnapshot
}

func readCounters(db *engine.DB) counters {
	return counters{pool: db.Pool().Stats(), metrics: db.Metrics(), cache: db.PlanCacheSnapshot()}
}

// passStats is one pass's measurement.
type passStats struct {
	ops         int
	wall        time.Duration
	lat, first  [][]int64 // per client, per op (ns)
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPauseNs   uint64
	heapSys     uint64
	before, aft counters
}

// pass replays every client's op list once, closed loop: a client
// issues its next op only when the previous one is drained and closed.
// visit, when set, is called instead of exec (traced and verify passes).
func (r *runner) pass(visit func(client, i int, o *op) opResult) passStats {
	lists := r.fx.ops
	ps := passStats{lat: make([][]int64, len(lists)), first: make([][]int64, len(lists))}
	for c, l := range lists {
		ps.lat[c], ps.first[c] = make([]int64, len(l)), make([]int64, len(l))
		ps.ops += len(l)
	}
	if visit == nil {
		visit = func(_, _ int, o *op) opResult { return r.exec(o, nil, nil) }
	}
	client := func(c int) {
		list, lat, first := lists[c], ps.lat[c], ps.first[c]
		for i := range list {
			res := visit(c, i, &list[i])
			lat[i], first[i] = res.total, res.first
		}
	}
	ps.before = readCounters(r.db)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if len(lists) == 1 {
		client(0)
	} else {
		var wg sync.WaitGroup
		for c := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(c)
			}()
		}
		wg.Wait()
	}
	ps.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	ps.aft = readCounters(r.db)
	ps.mallocs, ps.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	ps.gcCycles, ps.gcPauseNs, ps.heapSys = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs, m1.HeapSys
	if p := r.db.Pool().PinnedPages(); p != 0 {
		r.fails.add("%d pages still pinned after a pass", p)
	}
	return ps
}

// warmUp runs the read-only warm-up list (mixed_rw) on a fresh database:
// it fills the pool and promotes the read shapes into the plan cache.
func (r *runner) warmUp() {
	for i := range r.fx.warm {
		r.exec(&r.fx.warm[i], nil, nil)
	}
}

// timedBuild builds the fixture's database and returns the build time.
func timedBuild(fx *fixture) (*engine.DB, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	db, err := fx.build()
	return db, time.Since(t0), err
}

// verifyStats is what the verify pass learns beyond pass/fail.
type verifyStats struct {
	oracleChecked int
	strategies    map[string]int // ops per "class | Stats().Tactic | Stats().Strategy"
}

// oracleSample picks the ops the oracle checks: min(all, 256), at least
// 8 per class. The op list is already shuffled, so the first k ops of a
// class are a uniform sample of it.
func oracleSample(fx *fixture) map[*op]bool {
	sample := map[*op]bool{}
	for c := range fx.ops {
		list := fx.ops[c]
		perClass := make([]int, len(fx.classes))
		for i := range list {
			perClass[list[i].class]++
		}
		taken := make([]int, len(fx.classes))
		for i := range list {
			o := &list[i]
			quota := 256 * perClass[o.class] / len(list)
			if quota < 8 {
				quota = 8
			}
			if o.kind == opQuery && taken[o.class] < quota {
				taken[o.class]++
				sample[o] = true
			}
		}
	}
	return sample
}

// verifyPass is the untimed first pass: every op is executed and
// checked; the sampled ones are compared with the oracle; row counts
// are recorded as the expectation of the timed passes; the pool fills,
// plans promote and feedback learns.
func (r *runner) verifyPass() verifyStats {
	vs := verifyStats{strategies: map[string]int{}}
	var mu sync.Mutex
	sample := map[*op]bool{}
	var orc *oracle
	if !r.fx.w.freshPerPass { // mixed_rw's state moves; its ops carry their own expectations
		sample, orc = oracleSample(r.fx), newOracle()
	}
	r.pass(func(_, _ int, o *op) opResult {
		var sink *rowSink
		if sample[o] {
			sink = &rowSink{}
		}
		var st core.RetrievalStats
		res := r.exec(o, sink, &st)
		if o.kind != opQuery {
			return res
		}
		mu.Lock()
		vs.strategies[r.fx.classes[o.class]+" | "+st.Tactic+" | "+st.Strategy]++
		if sample[o] {
			vs.oracleChecked++
		}
		mu.Unlock()
		if sample[o] {
			if err := checkOracle(o, res.rows, sink, orc.eval(o.spec)); err != nil {
				r.fails.add("oracle: %s %v: %v", o.sql, o.binds, err)
			}
		}
		if o.wantCount < 0 && o.anyOf == nil {
			o.wantCount = res.rows
		}
		return res
	})
	return vs
}

// timedRun is the measured part of one workload run.
type timedRun struct {
	passes  []passStats
	setups  []time.Duration
	verify  verifyStats
	traced  *tracedPass // nil without -trace
	db      *engine.DB  // the database of the last pass (for probes)
	fixture *fixture
}

// runWorkload executes the protocol for one workload: build, verify,
// timed passes, optional traced pass.
func runWorkload(fx *fixture, cfg runConfig, fails *failures) (*timedRun, error) {
	tr := &timedRun{fixture: fx}
	r := &runner{fx: fx, ctx: context.Background(), fails: fails, locking: fx.w.freshPerPass}
	build := func() error {
		db, d, err := timedBuild(fx)
		if err != nil {
			return fmt.Errorf("%s: building the fixture: %w", fx.w.name, err)
		}
		r.db, tr.db = db, db
		tr.setups = append(tr.setups, d)
		if fx.w.freshPerPass {
			r.warmUp()
		}
		return nil
	}
	if err := build(); err != nil {
		return nil, err
	}
	tr.verify = r.verifyPass()

	var measured time.Duration
	for p := 0; !cfg.enough(p, measured); p++ {
		if fx.w.freshPerPass {
			if err := build(); err != nil {
				return nil, err
			}
		}
		ps := r.pass(nil)
		measured += ps.wall
		tr.passes = append(tr.passes, ps)
	}
	if cfg.trace {
		if fx.w.freshPerPass {
			if err := build(); err != nil {
				return nil, err
			}
		}
		tr.traced = r.tracedPass()
	}
	return tr, nil
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max-min)/median of per-pass values: the recorded pass
// spread the comparer uses to call a difference "unresolved".
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if m := median(v); m != 0 {
		return (hi - lo) / m
	}
	return 0
}
