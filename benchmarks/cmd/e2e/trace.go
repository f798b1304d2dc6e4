package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"rdbdyn/internal/core"
)

// span is one traced interval. Spans live only in the benchmark: they
// are taken around the calls into the engine's exported functions, so
// tracing changes nothing inside the program under test.
type span struct {
	Workload string `json:"workload"`
	OpID     int64  `json:"op_id"`
	SpanID   int64  `json:"span_id"`
	ParentID int64  `json:"parent_id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Probe    bool   `json:"probe"`
	// Counts recorded on the op span's boundary.
	Class  string `json:"class,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	IO     int64  `json:"io,omitempty"`
	EstIO  int64  `json:"est_io,omitempty"`
	Tactic string `json:"tactic,omitempty"`
}

// tracer appends spans to a pre-sized slice; one per client, so the
// traced pass takes no lock.
type tracer struct {
	epoch time.Time
	base  int64 // span ids are base+index+1: unique across clients
	spans []span
}

func newTracer(epoch time.Time, client, capacity int) *tracer {
	return &tracer{epoch: epoch, base: int64(client) << 40, spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(opID, parent int64, name string) int {
	t.spans = append(t.spans, span{OpID: opID, SpanID: t.base + int64(len(t.spans)) + 1, ParentID: parent,
		Name: name, StartNs: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].EndNs = int64(time.Since(t.epoch)) }

// tracedOp is the per-op record of the traced pass: the op span's index
// and the engine's own account of what it did.
type tracedOp struct {
	client int
	o      *op
	root   int // index of the op span in its client's tracer
	stats  core.RetrievalStats
	res    opResult
}

// tracedPass is the extra pass of a -trace run.
type tracedPass struct {
	workload string
	epoch    time.Time // start_ns and end_ns count from here
	stats    passStats
	tracers  []*tracer
	ops      []tracedOp
	probes   []span // appended by the layer probes, after the pass
	nextID   int64
}

// spanNames of the inline decomposition, in call order. It is exactly
// what DB.QueryContext does: PrepareContext, Stmt.QueryContext, then
// the caller's Next loop and Close.
const (
	spanOp       = "op"
	spanPrepare  = "engine.prepare"
	spanStart    = "engine.start"
	spanFirstRow = "engine.first_row"
	spanDrain    = "engine.drain"
	spanClose    = "engine.close"
	spanExecDML  = "engine.exec_dml"
)

// execTraced is exec with DB.QueryContext decomposed into its own two
// calls and a span around each step.
func (r *runner) execTraced(t *tracer, opID int64, o *op, stats *core.RetrievalStats) (out opResult, root int) {
	t0 := time.Now()
	root = t.begin(opID, 0, spanOp)
	rootID := t.spans[root].SpanID
	defer func() {
		t.end(root)
		out.total = t.spans[root].EndNs - t.spans[root].StartNs
	}()
	if o.kind != opQuery {
		r.rw.Lock()
		s := t.begin(opID, rootID, spanExecDML)
		n, err := r.db.Exec(o.sql, o.binds)
		t.end(s)
		r.rw.Unlock()
		out.first, out.rows = int64(time.Since(t0)), n
		if err != nil {
			r.fails.add("%s: %v", o.sql, err)
		} else {
			r.checkCount(o, n)
		}
		return out, root
	}
	if r.locking {
		r.rw.RLock()
		defer r.rw.RUnlock()
	}
	s := t.begin(opID, rootID, spanPrepare)
	stmt, err := r.db.PrepareContext(r.ctx, o.sql)
	t.end(s)
	if err != nil {
		r.fails.add("%s: %v", o.sql, err)
		return out, root
	}
	s = t.begin(opID, rootID, spanStart)
	res, err := stmt.QueryContext(r.ctx, o.binds)
	t.end(s)
	if err != nil {
		r.fails.add("%s: %v", o.sql, err)
		return out, root
	}
	// First Next, then the rest, with the same per-row checks as exec.
	var prevKey int64
	count := o.spec.count
	s = t.begin(opID, rootID, spanFirstRow)
	row, ok, err := res.Next()
	t.end(s)
	out.first = int64(time.Since(t0))
	s = t.begin(opID, rootID, spanDrain)
	for err == nil && ok {
		if count {
			out.rows = int(row[0].I)
		} else {
			r.checkRow(o, row, out.rows, &prevKey)
			out.rows++
		}
		row, ok, err = res.Next()
	}
	t.end(s)
	if err != nil {
		r.fails.add("%s: next: %v", o.sql, err)
	} else {
		r.checkCount(o, out.rows)
	}
	*stats = res.Stats()
	s = t.begin(opID, rootID, spanClose)
	err = res.Close()
	t.end(s)
	if err != nil {
		r.fails.add("%s: close: %v", o.sql, err)
	}
	return out, root
}

// tracedPass replays the op lists once more with spans on.
func (r *runner) tracedPass() *tracedPass {
	tp := &tracedPass{workload: r.fx.w.name, epoch: time.Now()}
	perClient := make([][]tracedOp, len(r.fx.ops))
	for c, l := range r.fx.ops {
		tp.tracers = append(tp.tracers, newTracer(tp.epoch, c, 6*len(l)))
		perClient[c] = make([]tracedOp, len(l))
	}
	tp.stats = r.pass(func(c, i int, o *op) opResult {
		rec := &perClient[c][i]
		rec.client, rec.o = c, o
		opID := int64(c)<<40 + int64(i) + 1
		rec.res, rec.root = r.execTraced(tp.tracers[c], opID, o, &rec.stats)
		return rec.res
	})
	for c, recs := range perClient {
		t := tp.tracers[c]
		for i := range recs {
			rec := &recs[i]
			sp := &t.spans[rec.root]
			sp.Class, sp.Rows = r.fx.classes[rec.o.class], rec.res.rows
			sp.IO, sp.EstIO, sp.Tactic = rec.stats.IO.IOCost(), rec.stats.EstimateIO, rec.stats.Tactic
		}
		tp.ops = append(tp.ops, recs...)
	}
	return tp
}

// probe times fn as a probe span under the op span of rec. Probes run
// after the traced pass, so they cannot disturb it; they are flagged and
// excluded from the op's self time.
func (tp *tracedPass) probe(rec *tracedOp, name string, fn func()) time.Duration {
	root := tp.tracers[rec.client].spans[rec.root]
	tp.nextID++
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	start := int64(t0.Sub(tp.epoch))
	tp.probes = append(tp.probes, span{OpID: root.OpID, SpanID: int64(1)<<50 + tp.nextID, ParentID: root.SpanID,
		Name: name, StartNs: start, EndNs: start + int64(d), Probe: true})
	return d
}

// writeSpanFile writes every span of the traced passes, one JSON
// object per line.
func writeSpanFile(path string, passes []*tracedPass) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, tp := range passes {
		for _, spans := range tp.allSpans() {
			for i := range spans {
				spans[i].Workload = tp.workload
				if err := enc.Encode(&spans[i]); err != nil {
					f.Close()
					return fmt.Errorf("writing spans: %w", err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// allSpans returns the inline spans of every client, then the probes.
func (tp *tracedPass) allSpans() [][]span {
	var out [][]span
	for _, t := range tp.tracers {
		out = append(out, t.spans)
	}
	return append(out, tp.probes)
}

// spanTotals sums, per span name, the duration of the inline (non-probe)
// spans and the number of ops that have the span; self is the op time no
// child covers. Children of one op never overlap, so the covered
// interval is the sum of their durations.
type spanTotals struct {
	ns    map[string]int64
	count map[string]int
	self  int64
	ops   int
}

func (tp *tracedPass) totals() spanTotals {
	st := spanTotals{ns: map[string]int64{}, count: map[string]int{}}
	for _, t := range tp.tracers {
		var opDur, childDur int64
		for i := range t.spans {
			sp := &t.spans[i]
			d := sp.EndNs - sp.StartNs
			st.ns[sp.Name] += d
			st.count[sp.Name]++
			if sp.ParentID == 0 {
				opDur += d
				st.ops++
			} else {
				childDur += d
			}
		}
		st.self += opDur - childDur
	}
	return st
}

// checkNesting verifies the trace is well formed: every child interval
// lies inside its parent's, and an op's children sum to no more than the
// op span.
func checkNesting(spans []span) error {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].SpanID] = &spans[i]
	}
	children := map[int64]int64{}
	for i := range spans {
		sp := &spans[i]
		if sp.EndNs < sp.StartNs {
			return fmt.Errorf("span %d (%s) ends before it starts", sp.SpanID, sp.Name)
		}
		if sp.ParentID == 0 || sp.Probe {
			continue
		}
		p := byID[sp.ParentID]
		if p == nil {
			return fmt.Errorf("span %d (%s) has no parent %d", sp.SpanID, sp.Name, sp.ParentID)
		}
		if sp.StartNs < p.StartNs || sp.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) [%d,%d] is not inside its parent [%d,%d]",
				sp.SpanID, sp.Name, sp.StartNs, sp.EndNs, p.StartNs, p.EndNs)
		}
		children[sp.ParentID] += sp.EndNs - sp.StartNs
	}
	for id, sum := range children {
		if p := byID[id]; sum > p.EndNs-p.StartNs {
			return fmt.Errorf("children of op span %d cover %d ns of a %d ns op", id, sum, p.EndNs-p.StartNs)
		}
	}
	return nil
}
