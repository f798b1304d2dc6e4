package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"rdbdyn/internal/btree"
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/engine"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/sql"
	"rdbdyn/internal/storage"
)

// Layer probes. After the traced pass the benchmark replays, for a
// class-stratified sample of the traced ops, the exported call of each
// layer with the op's own SQL, restriction, binds and key ranges on the
// same database, and times it from outside. Each timed call is recorded
// as a probe span under the op it replays.

// bad records a failed probe call as a benchmark failure: the probes
// call the same exported functions the engine does, on valid input.
func (pr *probeResult) bad(what string, err error) bool {
	if err != nil {
		pr.fails.add("probe %s: %v", what, err)
	}
	return err != nil
}

// acc collects the samples of one probe metric. Timings report their
// median, which one GC pause inside a probe cannot move; ratios and
// counts report their mean.
type acc struct{ v []float64 }

func (a *acc) add(x float64) { a.v = append(a.v, x) }

func (a acc) median() float64 { return quantile(a.v, 0.5) }

func (a acc) mean() float64 {
	sum := 0.0
	for _, x := range a.v {
		sum += x
	}
	return ratio(sum, float64(len(a.v)))
}

// probeResult holds the probe-derived layer metrics of one workload.
type probeResult struct {
	fails                                   *failures
	parse, compile, shapeKey, prepareAllocs acc
	appraise, shortcut                      acc
	qerrors                                 []float64
	seek, seekPages, nextBatch, estRange    acc
	ridAppend, ridSorted, bmBuild, bmFilter acc
	spill                                   acc
	fetch, decode, evalPred                 acc
	// Once per workload.
	getHitNs, getMissNs, heapScanNs              float64
	heapInsertUs, btreeInsertUs, catalogInsertUs float64
}

// maxProbeEntries caps how much of a key range one probe drains: the
// RID-list layers are probed at the workload's observed list lengths,
// up to this many.
const maxProbeEntries = 8192

// view is one restricted table of an op: the whole query for a
// single-table statement, each locally restricted table for a join.
type view struct {
	tab         *catalog.Table
	restriction expr.Expr
}

func viewsOf(c *sql.Compiled) []view {
	if c.Query != nil {
		return []view{{c.Query.Table, c.Query.Restriction}}
	}
	var out []view
	for i, t := range c.Join.Tables {
		if c.Join.Local[i] != nil {
			out = append(out, view{t, c.Join.Local[i]})
		}
	}
	return out
}

// restricted returns the indexes a restriction gives a key range on
// their leading column: the ones the initial stage appraises.
func restricted(v view, binds expr.Bindings) []*catalog.Index {
	var out []*catalog.Index
	for _, ix := range v.tab.Indexes {
		lo, hi, n, empty := ix.RestrictionBounds(v.restriction, binds)
		if !empty && n > 0 && (lo != nil || hi != nil) {
			out = append(out, ix)
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// probeSample picks up to n traced ops, spread evenly over the classes.
func probeSample(tp *tracedPass, classes, n int) []*tracedOp {
	perClass := n / classes
	if perClass < 1 {
		perClass = 1
	}
	taken := make([]int, classes)
	var out []*tracedOp
	for i := range tp.ops {
		rec := &tp.ops[i]
		if rec.o.kind == opQuery && taken[rec.o.class] < perClass {
			taken[rec.o.class]++
			out = append(out, rec)
		}
	}
	return out
}

func runProbes(tr *timedRun, sc scale, fails *failures) *probeResult {
	tp, db := tr.traced, tr.db
	pr := &probeResult{fails: fails}
	for _, rec := range probeSample(tp, len(tr.fixture.classes), sc.probeOps) {
		o := rec.o
		// sql: parse, compile, shape key.
		var stmt *sql.SelectStmt
		var compiled *sql.Compiled
		var err error
		m0 := mallocs()
		pr.parse.add(us(tp.probe(rec, "sql.parse", func() { stmt, err = sql.Parse(o.sql) })))
		if pr.bad("sql.Parse", err) {
			continue
		}
		pr.compile.add(us(tp.probe(rec, "sql.compile", func() { compiled, err = sql.Compile(db.Catalog(), stmt) })))
		if pr.bad("sql.Compile", err) {
			continue
		}
		pr.shapeKey.add(us(tp.probe(rec, "sql.shape_key", func() { _ = compiled.ShapeKey() })))
		pr.prepareAllocs.add(float64(mallocs() - m0))

		binds, err := o.binds.Bindings()
		if pr.bad("Binds.Bindings", err) {
			continue
		}
		for _, v := range viewsOf(compiled) {
			probeView(pr, tp, rec, db, v, binds)
		}
	}
	probeStorage(pr, tr, sc)
	return pr
}

// probeView runs the estimate, btree, rid, catalog and expr probes of
// one restricted table of one op.
func probeView(pr *probeResult, tp *tracedPass, rec *tracedOp, db *engine.DB, v view, binds expr.Bindings) {
	indexes := restricted(v, binds)
	var heapRIDs []storage.RID
	if len(indexes) > 0 {
		// estimate: the initial stage, and its error against the exact
		// count of each appraised range.
		var res estimate.Result
		var err error
		pr.appraise.add(us(tp.probe(rec, "estimate.appraise", func() {
			res, err = estimate.Appraise(indexes, v.restriction, binds, estimate.DefaultOptions())
		})))
		if pr.bad("estimate.Appraise", err) {
			return
		}
		if res.Shortcut {
			pr.shortcut.add(1)
		} else {
			pr.shortcut.add(0)
		}
		for _, e := range res.Estimates {
			if e.Sargable == 0 || e.Empty {
				continue
			}
			exact, err := e.Index.Tree.CountRange(e.Lo, e.Hi)
			if !pr.bad("BTree.CountRange", err) {
				est, act := math.Max(e.RIDs, 1), math.Max(float64(exact), 1)
				pr.qerrors = append(pr.qerrors, math.Max(est/act, act/est))
			}
		}
		// btree: descent, batched leaf iteration, range estimation, on
		// the range the estimator ranked first.
		best := res.Estimates[0]
		tree := best.Index.Tree
		tk := storage.NewTracker(nil)
		var cur *btree.Cursor
		pr.seek.add(us(tp.probe(rec, "btree.seek", func() { cur, err = tree.SeekTracked(best.Lo, best.Hi, tk) })))
		if pr.bad("BTree.SeekTracked", err) {
			return
		}
		st := tk.Stats()
		pr.seekPages.add(float64(st.Reads + st.Hits))
		batch := make([]btree.Entry, 128)
		var rids []storage.RID
		d := tp.probe(rec, "btree.next_batch", func() {
			for len(rids) < maxProbeEntries {
				n, err := cur.NextBatch(batch)
				if pr.bad("Cursor.NextBatch", err) || n == 0 {
					break
				}
				for _, e := range batch[:n] {
					rids = append(rids, e.RID)
				}
			}
		})
		cur.Close()
		if len(rids) > 0 {
			pr.nextBatch.add(float64(d) / float64(len(rids)))
		}
		pr.estRange.add(us(tp.probe(rec, "btree.estimate_range", func() {
			_, _, err = tree.EstimateRangeRefinedTracked(best.Lo, best.Hi, tk)
		})))
		pr.bad("BTree.EstimateRangeRefinedTracked", err)
		probeRID(pr, tp, rec, db, rids)
		heapRIDs = rids
	}
	if len(heapRIDs) > 16 {
		heapRIDs = heapRIDs[:16]
	}
	if len(heapRIDs) == 0 {
		// No usable index (a Tscan class): probe the rows a heap scan
		// meets first.
		cur := v.tab.Heap.CursorTracked(nil)
		for len(heapRIDs) < 16 {
			_, id, ok, err := cur.Next()
			if pr.bad("HeapCursor.Next", err) || !ok {
				break
			}
			heapRIDs = append(heapRIDs, id)
		}
		cur.Close()
	}
	// catalog and expr: fetch, decode, evaluate the restriction.
	for _, id := range heapRIDs {
		var err error
		pr.fetch.add(us(tp.probe(rec, "catalog.fetch", func() { _, err = v.tab.FetchTracked(id, nil) })))
		if pr.bad("Table.FetchTracked", err) {
			continue
		}
		record, err := v.tab.Heap.GetTracked(id, nil)
		if pr.bad("HeapFile.GetTracked", err) {
			continue
		}
		var row expr.Row
		pr.decode.add(float64(tp.probe(rec, "expr.decode_row", func() { row, err = expr.DecodeRow(record) })))
		if pr.bad("expr.DecodeRow", err) {
			continue
		}
		pr.evalPred.add(float64(tp.probe(rec, "expr.eval_pred", func() { _, err = expr.EvalPred(v.restriction, row, binds) })))
		pr.bad("expr.EvalPred", err)
	}
}

// probeRID times the RID-list layer at the length of one observed list.
func probeRID(pr *probeResult, tp *tracedPass, rec *tracedOp, db *engine.DB, rids []storage.RID) {
	if len(rids) == 0 {
		return
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(len(rids)) }
	cfg := db.Optimizer().Config().RID
	tk := storage.NewTracker(nil)
	c := rid.NewContainerTracked(db.Pool(), cfg, tk)
	var err error
	pr.ridAppend.add(per(tp.probe(rec, "rid.append", func() {
		for at := 0; at < len(rids) && err == nil; at += 128 {
			end := at + 128
			if end > len(rids) {
				end = len(rids)
			}
			err = c.AppendBatch(rids[at:end])
		}
	})))
	if pr.bad("Container.AppendBatch", err) {
		return
	}
	if c.Spilled() {
		pr.spill.add(1)
	} else {
		pr.spill.add(0)
	}
	var sorted []storage.RID
	pr.ridSorted.add(per(tp.probe(rec, "rid.sorted_all", func() { sorted, err = c.SortedAll() })))
	c.Discard()
	if pr.bad("Container.SortedAll", err) {
		return
	}
	var bm *rid.CompressedBitmap
	pr.bmBuild.add(per(tp.probe(rec, "rid.bitmap_build", func() { bm = rid.FromRIDs(sorted) })))
	keep := make([]bool, len(rids))
	pr.bmFilter.add(per(tp.probe(rec, "rid.bitmap_filter", func() { bm.FilterBatch(rids, keep) })))
}

// probeStorage runs the once-per-workload probes: heap scan cost per
// row, buffer-pool hit and miss cost at the workload's pool size, and
// the insert paths (heap, B-tree, catalog row + index maintenance) on a
// scratch pool of the same size. It runs last: the miss probe empties
// the workload's pool.
func probeStorage(pr *probeResult, tr *timedRun, sc scale) {
	db := tr.db
	ref := tr.fixture.tables[0]
	if tr.fixture.w.genKey == "join" {
		ref = tr.fixture.tables[1] // ORD: the table that does not fit the pool
	}
	tab, err := db.Catalog().Table(ref.name)
	if pr.bad("Catalog.Table", err) {
		return
	}
	pool := db.Pool()

	// Heap scan: cursor iteration without decoding.
	rows := 0
	t0 := time.Now()
	cur := tab.Heap.CursorTracked(nil)
	for rows < 50000 {
		_, _, ok, err := cur.Next()
		if pr.bad("HeapCursor.Next", err) || !ok {
			break
		}
		rows++
	}
	cur.Close()
	if rows > 0 {
		pr.heapScanNs = float64(time.Since(t0)) / float64(rows)
	}

	// Hit cost: read one resident page repeatedly.
	file, pages := tab.Heap.File(), tab.Heap.NumPages()
	first := storage.PageID{File: file, No: 0}
	if _, err := pool.GetTracked(first, nil); !pr.bad("BufferPool.GetTracked", err) {
		const reps = 2000
		t0 = time.Now()
		for i := 0; i < reps && err == nil; i++ {
			_, err = pool.GetTracked(first, nil)
		}
		pr.bad("BufferPool.GetTracked", err)
		pr.getHitNs = float64(time.Since(t0)) / reps
	}
	// Miss cost, including the eviction a bounded pool must do: empty
	// the pool, then touch distinct heap pages, twice the pool's capacity
	// of them when the heap is that large, so the later misses evict.
	pool.EvictAll()
	n := pages
	if c := 2 * pool.Capacity(); c < n {
		n = c
	}
	t0 = time.Now()
	for i := 0; i < n && err == nil; i++ {
		_, err = pool.GetTracked(storage.PageID{File: file, No: storage.PageNo(i)}, nil)
	}
	pr.bad("BufferPool.GetTracked", err)
	pr.getMissNs = float64(time.Since(t0)) / float64(n)

	// Insert paths, on scratch storage fed with the fixture's own rows.
	items := sc.scratchItems
	if items > len(ref.rows) {
		items = len(ref.rows)
	}
	scratch := storage.NewBufferPool(storage.NewDisk(0), pool.Capacity())
	encoded := make([][]byte, items)
	exprRows := make([]expr.Row, items)
	for i := range exprRows {
		row := make(expr.Row, len(ref.rows[i]))
		for j, v := range ref.rows[i] {
			if v.str {
				row[j] = expr.Str(v.s)
			} else {
				row[j] = expr.Int(v.i)
			}
		}
		exprRows[i], encoded[i] = row, expr.EncodeRow(row)
	}
	heap := storage.NewHeapFile(scratch)
	rids := make([]storage.RID, items)
	t0 = time.Now()
	for i := 0; i < items && err == nil; i++ {
		rids[i], err = heap.InsertTracked(encoded[i], nil)
	}
	pr.heapInsertUs = float64(time.Since(t0)) / 1e3 / float64(items)
	if pr.bad("HeapFile.InsertTracked", err) {
		return
	}

	// B-tree inserts keyed on the table's second column (random order
	// in every fixture but EVENTS, whose TS is sequential).
	tree, err := btree.New(scratch, heap.File())
	if pr.bad("btree.New", err) {
		return
	}
	keys := make([][]byte, items)
	for i, row := range exprRows {
		keys[i] = expr.EncodeKey(nil, row[1])
	}
	t0 = time.Now()
	for i := 0; i < items && err == nil; i++ {
		err = tree.Insert(keys[i], rids[i])
	}
	pr.btreeInsertUs = float64(time.Since(t0)) / 1e3 / float64(items)
	pr.bad("BTree.Insert", err)

	// Catalog insert: the row plus maintenance of the same indexes.
	st, err := catalog.New(scratch).CreateTable(tab.Name, tab.Columns)
	if pr.bad("Catalog.CreateTable", err) {
		return
	}
	for _, ix := range tab.Indexes {
		names := make([]string, len(ix.Cols))
		for i, c := range ix.Cols {
			names[i] = tab.Columns[c].Name
		}
		if _, err := st.CreateIndex(ix.Name, names...); pr.bad("Table.CreateIndex", err) {
			return
		}
	}
	t0 = time.Now()
	for i := 0; i < items && err == nil; i++ {
		_, err = st.Insert(exprRows[i])
	}
	pr.catalogInsertUs = float64(time.Since(t0)) / 1e3 / float64(items)
	pr.bad("Table.Insert", err)
}

// quantile is percentile over unsorted values.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, q)
}
