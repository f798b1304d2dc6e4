package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// TestFanOutContract pins the one fan-out protocol every partitioned
// site runs on: the lowest-index error wins whatever the finishing
// order, every worker's charges — failed workers included — are in the
// parent tracker by the time the error returns, a failure raises the
// stop flag for the siblings, and width 1 runs inline on the parent
// tracker without spawning.
func TestFanOutContract(t *testing.T) {
	f := newFixture(t, 2000)
	heap := f.tab.Heap
	if heap.NumPages() < 8 {
		t.Fatalf("fixture heap has %d pages, want >= 8", heap.NumPages())
	}
	// touch charges tr one page access per page of worker i's private
	// page pair, so each worker leaves a distinct, known charge.
	touch := func(i int, tr *storage.Tracker) {
		for p := 2 * i; p < 2*i+2; p++ {
			cur := heap.RangeCursorTracked(storage.PageNo(p), storage.PageNo(p+1), tr)
			if _, _, _, err := cur.Next(); err != nil {
				t.Error(err)
			}
			cur.Close()
		}
	}
	errLow, errHigh := errors.New("worker 1 failed"), errors.New("worker 3 failed")

	t.Run("two failures", func(t *testing.T) {
		f.pool.EvictAll()
		parent := storage.NewTracker(nil)
		var sawStop atomic.Int32
		release := make(chan struct{})
		err := fanOut(parent, 4, func(i int, tr *storage.Tracker, stop *atomic.Bool) error {
			touch(i, tr)
			switch i {
			case 3:
				// The higher index fails first; the lower one only after.
				defer close(release)
				return errHigh
			case 1:
				<-release
				return errLow
			}
			// Healthy siblings spin until the failure reaches them.
			<-release
			for !stop.Load() {
				runtime.Gosched()
			}
			sawStop.Add(1)
			return nil
		})
		if err != errLow {
			t.Fatalf("err = %v, want the lowest-index worker's (%v)", err, errLow)
		}
		if got := parent.Stats().Reads; got != 8 {
			t.Fatalf("parent holds %d reads at error return, want all 8 (2 per worker, failed workers included)", got)
		}
		if sawStop.Load() != 2 {
			t.Fatalf("%d healthy siblings observed the stop flag, want 2", sawStop.Load())
		}
	})

	t.Run("width 1 is inline", func(t *testing.T) {
		f.pool.EvictAll()
		parent := storage.NewTracker(nil)
		before := runtime.NumGoroutine()
		err := fanOut(parent, 1, func(i int, tr *storage.Tracker, stop *atomic.Bool) error {
			if tr != parent {
				t.Errorf("width 1 ran on a private tracker, want the parent's")
			}
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("width 1 spawned: %d goroutines, %d before", n, before)
			}
			touch(0, tr)
			return errLow
		})
		if err != errLow || parent.Stats().Reads != 2 {
			t.Fatalf("err = %v, reads = %d; want %v and 2", err, parent.Stats().Reads, errLow)
		}
	})

	t.Run("clean run merges in full", func(t *testing.T) {
		f.pool.EvictAll()
		parent := storage.NewTracker(nil)
		if err := fanOut(parent, 3, func(i int, tr *storage.Tracker, _ *atomic.Bool) error {
			touch(i, tr)
			return nil
		}); err != nil || parent.Stats().Reads != 6 {
			t.Fatalf("err = %v, reads = %d; want nil and 6", err, parent.Stats().Reads)
		}
	})
}

// widthEvent returns the run's parallel-width-chosen event for scan.
func widthEvent(st RetrievalStats, scan string) *TraceEvent {
	for i, ev := range st.Events {
		if ev.Kind == EvParallelWidthChosen && ev.Scan == scan {
			return &st.Events[i]
		}
	}
	return nil
}

// TestJoinProbePartitioned covers the inl/ridx probe at width 1 against
// the adaptive fan-out: a forced probe stage must deliver the same row
// sequence and the same per-stage attributed I/O at both widths, the
// adaptive side must actually have fanned out (a parallel-width-chosen
// event for "JoinProbe"), and the mid-stage checkpoint — which the
// partitioned probe evaluates between rounds instead of every 64 rows —
// must still abandon an overpriced probe for hj on both, keeping what the
// probes already produced.
func TestJoinProbePartitioned(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"sequential", Config{}},
		{"adaptive-4", Config{Parallelism: 4, AdaptiveParallelism: true}},
	}
	sameSequence := func(t *testing.T, got, want []expr.Row) {
		t.Helper()
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%d rows vs %d (want equal and non-zero)", len(got), len(want))
		}
		for i := range got {
			if rowKey(got[i]) != rowKey(want[i]) {
				t.Fatalf("row %d diverged:\n got  %s\n want %s", i, rowKey(got[i]), rowKey(want[i]))
			}
		}
	}
	for _, op := range []string{JoinOpINL, JoinOpRIDX} {
		t.Run(op+"/forced", func(t *testing.T) {
			// Unbounded pool, evicted before each run: every distinct page
			// is read exactly once whatever the worker interleaving.
			f := newJoinFixture(t, 100, 600, 20, 0, true)
			var rows [2][]expr.Row
			var sts [2]RetrievalStats
			for i, c := range configs {
				f.pool.EvictAll()
				jq := f.custOrdQuery(nil)
				jq.Local[1] = expr.NewCmp(expr.GE, expr.Col(3, "QTY"), expr.Lit(expr.Int(8)))
				plan := &JoinPlan{Stages: []JoinStagePlan{
					{Table: 0, Operator: "tscan", EstRows: float64(f.nCust)},
					{Table: 1, Operator: op, Index: "ORD_CUST_IX", EstRows: 1},
				}}
				rows[i], sts[i] = drainJoin(t, NewOptimizer(c.cfg).RunJoin(nil, jq, plan))
			}
			sameSequence(t, rows[1], rows[0])
			for i := range sts[0].JoinStages {
				s, p := sts[0].JoinStages[i], sts[1].JoinStages[i]
				if s.Operator != p.Operator || s.IO != p.IO || s.ActualRows != p.ActualRows {
					t.Fatalf("stage %d: sequential %s io=%d rows=%d, adaptive %s io=%d rows=%d",
						i, s.Operator, s.IO, s.ActualRows, p.Operator, p.IO, p.ActualRows)
				}
			}
			if ev := widthEvent(sts[0], "JoinProbe"); ev != nil {
				t.Fatalf("sequential run decided a width: %s", ev.String())
			}
			if ev := widthEvent(sts[1], "JoinProbe"); ev == nil || ev.Width < 2 {
				t.Fatalf("adaptive run did not fan the probe out; trace: %v", sts[1].Trace())
			}
		})

		t.Run(op+"/fallback", func(t *testing.T) {
			// A 32-frame pool keeps every probe missing, so the measured
			// per-probe cost projects far past one scan of ORD.
			f := newJoinFixture(t, 1000, 4000, 50, 32, false)
			var rows [2][]expr.Row
			for i, c := range configs {
				f.pool.EvictAll()
				jq := f.custOrdQuery(nil)
				jq.Local[1] = expr.NewCmp(expr.GE, expr.Col(3, "QTY"), expr.Lit(expr.Int(2)))
				o := NewOptimizer(c.cfg)
				var st RetrievalStats
				rows[i], st = drainJoin(t, runJoinOn(o, nil, jq, &JoinPlan{Stages: []JoinStagePlan{
					{Table: 0, Operator: "tscan", EstRows: float64(f.nCust)},
					{Table: 1, Operator: op, Index: "ORD_CUST_IX"},
				}}))
				last := st.JoinStages[len(st.JoinStages)-1]
				if last.Operator != JoinOpHJ || !last.Reoptimized || !hasEvent(st, EvJoinReoptimized, "") {
					t.Fatalf("%s: %s probe did not fall back to hj mid-stage: %s; trace: %v",
						c.name, op, fmt.Sprint(last), st.Trace())
				}
				if (widthEvent(st, "JoinProbe") != nil) != c.cfg.AdaptiveParallelism {
					t.Fatalf("%s: JoinProbe width decision present=%v", c.name, !c.cfg.AdaptiveParallelism)
				}
			}
			sameSequence(t, rows[1], rows[0])
		})
	}
}
