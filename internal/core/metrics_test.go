package core

import (
	"testing"

	"rdbdyn/internal/storage"
)

// statsWith fabricates a RetrievalStats with the given projected and
// actual I/O.
func statsWith(predicted float64, actual int64) *RetrievalStats {
	return &RetrievalStats{planEstIO: predicted, IO: storage.IOStats{Reads: actual}}
}

// Regression: retrievals with zero projected or actual I/O used to be
// silently dropped from the estimate-error histogram; every sample now
// lands in a defined bucket.
func TestEstimateErrorEdgeBuckets(t *testing.T) {
	m := &Metrics{}
	m.recordRetrieval(tacticTscan, statsWith(0, 0), true)   // exact-zero bucket
	m.recordRetrieval(tacticTscan, statsWith(50, 0), true)  // overestimate off the top
	m.recordRetrieval(tacticTscan, statsWith(0, 50), true)  // underestimate off the bottom
	m.recordRetrieval(tacticTscan, statsWith(50, 50), true) // ~1x
	s := m.Snapshot()
	if got := s.EstimateErrorLog[estErrZeroLabel]; got != 1 {
		t.Fatalf("%s bucket = %d, want 1", estErrZeroLabel, got)
	}
	if got := s.EstimateErrorLog[">=8x"]; got != 1 {
		t.Fatalf(">=8x bucket = %d, want 1", got)
	}
	if got := s.EstimateErrorLog["<=1/8x"]; got != 1 {
		t.Fatalf("<=1/8x bucket = %d, want 1", got)
	}
	if got := s.EstimateErrorLog["~1x"]; got != 1 {
		t.Fatalf("~1x bucket = %d, want 1", got)
	}
	var total int64
	for _, n := range s.EstimateErrorLog {
		total += n
	}
	if total != 4 {
		t.Fatalf("histogram holds %d samples, want all 4", total)
	}
	if got := s.TacticWins["tscan"]; got != 4 {
		t.Fatalf("tactic wins = %d, want 4", got)
	}
}

// A frozen-plan replay wins its tactic but carries no estimate of its
// own: the histogram must not move.
func TestReplaySkipsEstimateErrorHistogram(t *testing.T) {
	m := &Metrics{}
	m.recordRetrieval(tacticSscan, statsWith(50, 50), false)
	s := m.Snapshot()
	if len(s.EstimateErrorLog) != 0 {
		t.Fatalf("replay recorded estimate error: %v", s.EstimateErrorLog)
	}
	if got := s.TacticWins["sscan"]; got != 1 {
		t.Fatalf("tactic wins = %d, want 1", got)
	}
}

// TestCapturePlanRules drives CapturePlan from the decision facts a
// retrieval records, one rule per case.
func TestCapturePlanRules(t *testing.T) {
	// tscan is always replayable.
	if p, ok := CapturePlan(&RetrievalStats{Tactic: "tscan"}); !ok || p.Tactic != "tscan" {
		t.Fatalf("tscan capture = %v, %v", p, ok)
	}
	// sscan captures its single index.
	if p, ok := CapturePlan(&RetrievalStats{Tactic: "sscan", planIndex: "AGE_IX"}); !ok || len(p.Indexes) != 1 || p.Indexes[0] != "AGE_IX" {
		t.Fatalf("sscan capture = %v, %v", p, ok)
	}
	// A strategy switch poisons capture: fast-first's switch to Tscan
	// for the remainder...
	if _, ok := CapturePlan(&RetrievalStats{Tactic: "fast-first", FinalListLen: -1, switchedTo: "Tscan"}); ok {
		t.Fatal("strategy-switched run captured")
	}
	// ...except the skip-everything-recommend-Tscan switch, which cost
	// zero scan I/O and replays exactly as a sequential scan.
	st := &RetrievalStats{Tactic: "background-only", FinalListLen: -1, switchedTo: "Tscan"}
	if p, ok := CapturePlan(st); !ok || p.Tactic != "tscan" || len(p.Indexes) != 0 {
		t.Fatalf("switch-to-tscan capture = %v, %v", p, ok)
	}
	// But not when a scan had already started before the switch.
	st.scansStarted = 1
	if _, ok := CapturePlan(st); ok {
		t.Fatal("mid-scan switch captured")
	}
	// Clean background-only: every started scan adopted, in order; the
	// plan seeds the replay with the adopted index's estimate. (AGE_IX,
	// skipped before scanning, is harmless for replay.)
	st = &RetrievalStats{
		Tactic:       "background-only",
		WinningOrder: []string{"CITY_IX"},
		FinalListLen: 10,
		Estimates:    []EstimateSummary{{Index: "CITY_IX", RIDs: 12}, {Index: "AGE_IX", RIDs: 9000}},
		scansStarted: 1,
	}
	p, ok := CapturePlan(st)
	if !ok || p.Tactic != "background-only" || len(p.Indexes) != 1 || p.Indexes[0] != "CITY_IX" {
		t.Fatalf("background-only capture = %v, %v", p, ok)
	}
	if len(p.RIDs) != 1 || p.RIDs[0] != 12 {
		t.Fatalf("captured RIDs = %v", p.RIDs)
	}
	// A race or a buffer overflow blocks capture of the same run.
	for _, mark := range []func(*RetrievalStats){
		func(st *RetrievalStats) { st.raced = true },
		func(st *RetrievalStats) { st.overflowed = true },
	} {
		marked := *st
		mark(&marked)
		if _, ok := CapturePlan(&marked); ok {
			t.Fatalf("run with a race or overflow captured: %+v", marked)
		}
	}
	// A started-but-unadopted scan (mid-flight abandonment) blocks
	// capture: its I/O would not be reproduced.
	st.scansStarted = 2
	if _, ok := CapturePlan(st); ok {
		t.Fatal("mid-abandoned run captured")
	}
	// index-only has no frozen form.
	if _, ok := CapturePlan(&RetrievalStats{Tactic: "index-only", planIndex: "AGE_IX"}); ok {
		t.Fatal("index-only captured")
	}
	// Union-scan plans are not replayable as Jscan: a Uscan adopts legs
	// but opens no Jscan scan.
	if _, ok := CapturePlan(&RetrievalStats{Tactic: "background-only", WinningOrder: []string{"A"}}); ok {
		t.Fatal("uscan plan captured")
	}
}
