package bench

import (
	"strings"
	"testing"

	"rdbdyn/internal/btree"
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// This file holds the vectorized-pipeline microbenchmarks as plain
// functions so they run both under `go test -bench` (see bench_test.go)
// and from rdbbench -benchout via testing.Benchmark. Each pair
// contrasts the pre-vectorization per-entry shape of a pipeline stage
// with its batched replacement on the same spilled workload; simulated
// I/O counters are identical between the legs by construction, so the
// difference is pure CPU and allocation.

const (
	// pipeEntries is sized so the surviving RID list (~2/3 of entries)
	// clearly exceeds the default in-memory budget of 4096 and the
	// container spills to a temp table in both legs.
	pipeEntries = 12288
	// pipeRows sizes the final-fetch table; candidates are half the rows.
	pipeRows = 20000
)

// pipeRID clusters ~100 RIDs per heap page, matching the fixture tables.
func pipeRID(i int) storage.RID {
	return storage.RID{Page: storage.PageID{File: 1, No: storage.PageNo(i / 100)}, Slot: uint16(i % 100)}
}

// indexScanFixture is the Jscan-shaped workload: a multi-leaf index and
// the RID list of a previously completed scan acting as the
// intersection filter (2 of 3 entries survive).
type indexScanFixture struct {
	pool  *storage.BufferPool
	tree  *btree.BTree
	prior []storage.RID
	cfg   rid.Config
}

func newIndexScanFixture() (*indexScanFixture, error) {
	d := storage.NewDisk(4096)
	// Bounded: spilled temp-table pages are evicted once cold, so the
	// pool's live set stays flat across benchmark iterations.
	pool := storage.NewBufferPool(d, 256)
	tree, err := btree.New(pool, d.CreateFile())
	if err != nil {
		return nil, err
	}
	f := &indexScanFixture{pool: pool, tree: tree, cfg: rid.DefaultConfig()}
	for i := 0; i < pipeEntries; i++ {
		r := pipeRID(i)
		if err := tree.Insert(expr.EncodeKey(nil, expr.Int(int64(i))), r); err != nil {
			return nil, err
		}
		if i%3 != 0 {
			f.prior = append(f.prior, r)
		}
	}
	return f, nil
}

// BenchJscanPerEntry is the pre-vectorization leg: per-entry cursor
// iteration, a scalar sorted-list probe per RID, per-RID container
// appends. Filter construction is part of the measured work, as it is
// inside a running Jscan.
func BenchJscanPerEntry(b *testing.B, f *indexScanFixture) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		filter := rid.NewSortedList(f.prior)
		c := rid.NewContainer(f.pool, f.cfg)
		cur, err := f.tree.Seek(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, r, ok, err := cur.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			if !filter.MayContain(r) {
				continue
			}
			if err := c.Append(r); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if !c.Spilled() {
			b.Fatalf("workload must spill (%d rids, budget %d)", n, f.cfg.MemBudget)
		}
		c.Discard()
	}
}

// BenchJscanBatched is the vectorized leg: leaf-sized entry batches, one
// bulk compressed-bitmap probe per batch, batched container appends.
func BenchJscanBatched(b *testing.B, f *indexScanFixture) {
	b.ReportAllocs()
	const step = 256
	batch := make([]btree.Entry, step)
	rids := make([]storage.RID, step)
	keep := make([]bool, step)
	out := make([]storage.RID, 0, step)
	for i := 0; i < b.N; i++ {
		filter := rid.FromRIDs(f.prior)
		c := rid.NewContainer(f.pool, f.cfg)
		cur, err := f.tree.Seek(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		for {
			n, err := cur.NextBatch(batch)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
			for j, e := range batch[:n] {
				rids[j] = e.RID
			}
			filter.FilterBatch(rids[:n], keep[:n])
			out = out[:0]
			for j := 0; j < n; j++ {
				if keep[j] {
					out = append(out, rids[j])
				}
			}
			if err := c.AppendBatch(out); err != nil {
				b.Fatal(err)
			}
		}
		if !c.Spilled() {
			b.Fatal("workload must spill")
		}
		c.Discard()
	}
}

// finalFetchFixture is the Fin-shaped workload: a heap table of int
// rows, a sorted candidate RID list covering half the table, a
// delivered-RID exclusion set, and a selective residual restriction
// (rejected rows must not allocate in the batched leg).
type finalFetchFixture struct {
	pool    *storage.BufferPool
	tab     *catalog.Table
	cand    []storage.RID
	exclude []storage.RID
	restr   expr.Expr
}

func newFinalFetchFixture() (*finalFetchFixture, error) {
	pool := storage.NewBufferPool(storage.NewDisk(4096), 0)
	cat := catalog.New(pool)
	tab, err := cat.CreateTable("PIPE", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "A", Type: expr.TypeInt},
		{Name: "B", Type: expr.TypeInt},
		{Name: "C", Type: expr.TypeInt},
		{Name: "D", Type: expr.TypeInt},
		{Name: "E", Type: expr.TypeInt},
	})
	if err != nil {
		return nil, err
	}
	f := &finalFetchFixture{pool: pool, tab: tab}
	for i := 0; i < pipeRows; i++ {
		v := int64(i)
		r, err := tab.Insert(expr.Row{
			expr.Int(v), expr.Int(v * 3), expr.Int(v % 97), expr.Int(v % 7), expr.Int(-v), expr.Int(v * v),
		})
		if err != nil {
			return nil, err
		}
		if i%2 == 0 {
			f.cand = append(f.cand, r) // insertion order = sorted RID order
			if i%10 == 0 {
				f.exclude = append(f.exclude, r)
			}
		}
	}
	// ~1% of candidates survive: the cost is dominated by fetching and
	// decoding rejected rows.
	idCol := 0
	f.restr = expr.NewCmp(expr.LT, expr.Col(idCol, "ID"), expr.Lit(expr.Int(200)))
	return f, nil
}

// BenchFinalPerRID is the pre-vectorization leg: one FetchTracked
// (fresh row allocation) per candidate, scalar sorted-list exclusion.
// Both legs decide rows through the engine's own expr.Filter.
func BenchFinalPerRID(b *testing.B, f *finalFetchFixture) {
	b.ReportAllocs()
	filter := expr.NewFilter(f.restr, nil)
	for i := 0; i < b.N; i++ {
		ex := rid.NewSortedList(f.exclude)
		tr := storage.NewTracker(nil)
		kept := 0
		for _, r := range f.cand {
			if ex.MayContain(r) {
				continue
			}
			row, err := f.tab.FetchTracked(r, tr)
			if err != nil {
				b.Fatal(err)
			}
			keep, err := filter.Eval(row)
			if err != nil {
				b.Fatal(err)
			}
			if keep {
				kept++
			}
		}
		if kept == 0 {
			b.Fatal("restriction kept nothing")
		}
	}
}

// BenchFinalGrouped is the vectorized leg: candidates grouped into
// same-page runs, one buffer-pool round trip per run, the row kernel's
// decode (restriction columns into a scratch view) and filter,
// compressed-bitmap exclusion.
func BenchFinalGrouped(b *testing.B, f *finalFetchFixture) {
	b.ReportAllocs()
	filter, need := expr.NewFilter(f.restr, nil), expr.Cols(len(f.tab.Columns), expr.Columns(f.restr)...)
	for i := 0; i < b.N; i++ {
		ex := rid.FromRIDs(f.exclude)
		tr := storage.NewTracker(nil)
		var scratch expr.Row
		run := make([]storage.RID, 0, 64)
		kept := 0
		pos := 0
		for pos < len(f.cand) {
			run = run[:0]
			var page storage.PageID
			for pos < len(f.cand) {
				r := f.cand[pos]
				if ex.MayContain(r) {
					pos++
					continue
				}
				if len(run) > 0 && r.Page != page {
					break
				}
				page = r.Page
				run = append(run, r)
				pos++
			}
			if len(run) == 0 {
				break
			}
			p, err := f.tab.Heap.GetSpanTracked(page, len(run), tr)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range run {
				rec, err := p.Get(r.Slot)
				if err != nil {
					b.Fatal(err)
				}
				if scratch, err = expr.DecodeView(rec, scratch, need); err != nil {
					b.Fatal(err)
				}
				keep, err := filter.Eval(scratch)
				if err != nil {
					b.Fatal(err)
				}
				if keep {
					kept++
				}
			}
		}
		if kept == 0 {
			b.Fatal("restriction kept nothing")
		}
	}
}

// PipelineResult is one benchmark leg's measurement.
type PipelineResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// PipelineReport pairs the raw measurements with the batched-over-
// per-entry speedup of each pipeline stage.
type PipelineReport struct {
	Results []PipelineResult   `json:"results"`
	Speedup map[string]float64 `json:"speedup"`
}

// RunPipeline measures every pipeline leg through testing.Benchmark
// (used by rdbbench -benchout, outside `go test`).
func RunPipeline() (*PipelineReport, error) {
	benches, err := PipelineBenchmarks()
	if err != nil {
		return nil, err
	}
	rep := &PipelineReport{Speedup: map[string]float64{}}
	perStage := map[string][]float64{} // stage -> [baseline ns, vectorized ns]
	for _, pb := range benches {
		r := testing.Benchmark(pb.F)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		rep.Results = append(rep.Results, PipelineResult{
			Name:        pb.Name,
			Iterations:  r.N,
			NsPerOp:     ns,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		stage := pb.Name
		if i := strings.IndexByte(stage, '/'); i >= 0 {
			stage = stage[:i]
		}
		perStage[stage] = append(perStage[stage], ns)
	}
	for stage, ns := range perStage {
		if len(ns) == 2 && ns[1] > 0 {
			rep.Speedup[stage] = ns[0] / ns[1]
		}
	}
	return rep, nil
}

// PipelineBenchmark is one named microbenchmark runnable standalone.
type PipelineBenchmark struct {
	Name string
	F    func(b *testing.B)
}

// PipelineBenchmarks builds the fixtures once and returns the four
// pipeline legs; rdbbench -benchout runs them through
// testing.Benchmark.
func PipelineBenchmarks() ([]PipelineBenchmark, error) {
	isf, err := newIndexScanFixture()
	if err != nil {
		return nil, err
	}
	fff, err := newFinalFetchFixture()
	if err != nil {
		return nil, err
	}
	return []PipelineBenchmark{
		{"JscanPipeline/per-entry", func(b *testing.B) { BenchJscanPerEntry(b, isf) }},
		{"JscanPipeline/batched", func(b *testing.B) { BenchJscanBatched(b, isf) }},
		{"FinalFetch/per-rid", func(b *testing.B) { BenchFinalPerRID(b, fff) }},
		{"FinalFetch/grouped", func(b *testing.B) { BenchFinalGrouped(b, fff) }},
	}, nil
}
