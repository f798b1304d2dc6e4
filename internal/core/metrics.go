package core

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"sync/atomic"

	"rdbdyn/internal/storage"
)

// estErrBuckets is the size of the estimate-error histogram: log2 of
// predicted/actual I/O, clamped to [-3, +3] around the "~1x" center.
const estErrBuckets = 7

var estErrLabels = [estErrBuckets]string{
	"<=1/8x", "1/4x", "1/2x", "~1x", "2x", "4x", ">=8x",
}

// estErrZeroLabel is the explicit zero/exact bucket: retrievals whose
// projected and actual I/O are both 0 (empty ranges, fully-cached point
// lookups). The log2 ratio is undefined there, so they get their own
// bucket instead of being dropped.
const estErrZeroLabel = "0-I/O"

// Metrics is a cumulative telemetry registry over every retrieval an
// optimizer runs: per-tactic win counts, competition-decision counters,
// and a histogram of how far the start-retrieval I/O projection missed
// the final attributed I/O. All counters are atomics, so concurrent
// Stmt.QueryContext traffic records without locks and Snapshot can be
// read at any time.
type Metrics struct {
	queries          atomic.Int64
	emptyRanges      atomic.Int64
	scanAbandonments atomic.Int64
	strategySwitches atomic.Int64
	racesResolved    atomic.Int64
	borrowOverflows  atomic.Int64
	cancelled        atomic.Int64
	deadlineExceeded atomic.Int64
	budgetExceeded   atomic.Int64
	tacticWins       [tacticKindCount]atomic.Int64
	estErr           [estErrBuckets]atomic.Int64
	estErrZero       atomic.Int64

	// Multi-table retrieval counters.
	joinQueries      atomic.Int64
	joinOrders       atomic.Int64
	joinReopts       atomic.Int64
	joinOpWins       [joinOpCount]atomic.Int64
	joinSortsAvoided atomic.Int64
	planCaptureRejs  atomic.Int64

	// Adaptive-parallelism counters (only moved under
	// Config.AdaptiveParallelism).
	parWidths       [parWidthBuckets]atomic.Int64
	parSeqDowngrade atomic.Int64
}

// parWidthBuckets is the size of the chosen-width histogram: widths
// rounded up to the next power of two, 1 .. maxParallelism (64).
const parWidthBuckets = 7

var parWidthLabels = [parWidthBuckets]string{"1", "2", "4", "8", "16", "32", "64"}

// parWidthBucket maps a chosen width to its power-of-two histogram
// bucket (1 → 0, 2 → 1, 3..4 → 2, ..., 33..64 → 6).
func parWidthBucket(w int) int {
	if w < 1 {
		w = 1
	}
	b := bits.Len(uint(w - 1))
	if b >= parWidthBuckets {
		b = parWidthBuckets - 1
	}
	return b
}

// onEvent folds one emitted event into the decision counters.
func (m *Metrics) onEvent(ev TraceEvent) {
	switch ev.Kind {
	case EvEmptyRange:
		m.emptyRanges.Add(1)
	case EvScanAbandoned:
		m.scanAbandonments.Add(1)
	case EvStrategySwitch:
		m.strategySwitches.Add(1)
	case EvRaceResolved:
		m.racesResolved.Add(1)
	case EvBorrowOverflow:
		m.borrowOverflows.Add(1)
	case EvJoinOrderChosen:
		m.joinOrders.Add(1)
	case EvJoinReoptimized:
		m.joinReopts.Add(1)
	case EvJoinSortAvoided:
		m.joinSortsAvoided.Add(1)
	case EvPlanCaptureRejected:
		m.planCaptureRejs.Add(1)
	case EvParallelWidthChosen:
		m.parWidths[parWidthBucket(ev.Width)].Add(1)
		if ev.Width <= 1 {
			// The policy was allowed to fan out (the event only fires
			// with a ceiling >= 2) and chose sequential anyway.
			m.parSeqDowngrade.Add(1)
		}
	}
}

// recordJoin folds one finished multi-table retrieval into the
// registry: one join-query count plus a win for each stage's operator.
func (m *Metrics) recordJoin(st *RetrievalStats) {
	if m == nil {
		return
	}
	m.joinQueries.Add(1)
	for _, sg := range st.JoinStages {
		if k, ok := joinOpIndex(sg.Operator); ok {
			m.joinOpWins[k].Add(1)
		}
	}
}

// recordQuery counts one query, whichever entry point ran it.
func (m *Metrics) recordQuery() { m.queries.Add(1) }

// recordCancellation classifies an execution-context unwind into one of
// the three cancellation counters. Deadline is checked before Canceled:
// an expired WithTimeout context reports DeadlineExceeded from Err even
// after its CancelFunc runs.
func (m *Metrics) recordCancellation(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		m.deadlineExceeded.Add(1)
	case errors.Is(err, storage.ErrBudgetExceeded):
		m.budgetExceeded.Add(1)
	case errors.Is(err, context.Canceled):
		m.cancelled.Add(1)
	}
}

// recordRetrieval folds one finished retrieval into the registry: a win
// for its tactic, and (when estErr is set — plan-cache replays carry no
// estimate of their own) one estimate-error sample comparing the
// projected I/O at decision time (estimation stage + the chosen plan's
// estimate) against the final attributed I/O.
//
// Edge buckets: both sides zero is the exact/zero bucket; a positive
// projection against zero actual I/O is an overestimate off the top of
// the scale (">=8x"); zero projected against positive actual is an
// underestimate off the bottom ("<=1/8x").
func (m *Metrics) recordRetrieval(t tacticKind, st *RetrievalStats, estErr bool) {
	if int(t) < len(m.tacticWins) {
		m.tacticWins[t].Add(1)
	}
	if !estErr {
		return
	}
	predicted := float64(st.EstimateIO)
	for _, ev := range st.Events {
		if ev.Kind == EvTacticChosen {
			predicted += ev.EstimatedIO
			break
		}
	}
	actual := float64(st.IO.IOCost())
	switch {
	case predicted <= 0 && actual <= 0:
		m.estErrZero.Add(1)
	case actual <= 0:
		m.estErr[estErrBuckets-1].Add(1)
	case predicted <= 0:
		m.estErr[0].Add(1)
	default:
		m.estErr[estErrBucket(predicted/actual)].Add(1)
	}
}

func estErrBucket(ratio float64) int {
	b := estErrBuckets/2 + int(math.Round(math.Log2(ratio)))
	if b < 0 {
		b = 0
	}
	if b >= estErrBuckets {
		b = estErrBuckets - 1
	}
	return b
}

// MetricsSnapshot is a point-in-time copy of a Metrics registry, shaped
// for JSON (rdbsh's \metrics, the benchmarks).
type MetricsSnapshot struct {
	Queries          int64            `json:"queries"`
	EmptyRanges      int64            `json:"empty_ranges"`
	ScanAbandonments int64            `json:"scan_abandonments"`
	StrategySwitches int64            `json:"strategy_switches"`
	RacesResolved    int64            `json:"races_resolved"`
	BorrowOverflows  int64            `json:"borrow_overflows"`
	TacticWins       map[string]int64 `json:"tactic_wins"`
	EstimateErrorLog map[string]int64 `json:"estimate_error_log2"`

	// Execution-context outcomes.
	QueriesCancelled        int64 `json:"queries_cancelled"`
	QueriesDeadlineExceeded int64 `json:"queries_deadline_exceeded"`
	QueriesBudgetExceeded   int64 `json:"queries_budget_exceeded"`
	// AdmissionRejected has no writer and always reads 0: the engine
	// admits every query. It stays only because the benchmark report
	// still reads it, and goes when that reader does (ROADMAP item 1a).
	AdmissionRejected int64 `json:"admission_rejected"`

	// Multi-table retrieval outcomes. All omitempty: single-table
	// workloads (every paper experiment) serialize exactly as before.
	JoinQueries         int64            `json:"join_queries,omitempty"`
	JoinOrdersChosen    int64            `json:"join_orders_chosen,omitempty"`
	JoinReoptimizations int64            `json:"join_reoptimizations,omitempty"`
	JoinOperatorWins    map[string]int64 `json:"join_operator_wins,omitempty"`
	JoinSortsAvoided    int64            `json:"join_sorts_avoided,omitempty"`
	PlanCaptureRejected int64            `json:"plan_capture_rejected,omitempty"`

	// Adaptive-parallelism outcomes. All omitempty: workloads that never
	// enable Config.AdaptiveParallelism serialize exactly as before.
	ParallelWidths        map[string]int64 `json:"parallel_widths,omitempty"`
	ParallelSeqDowngrades int64            `json:"parallel_seq_downgrades,omitempty"`
	// ParallelEarlyCancels has no writer and always reads 0. It stays
	// only because the benchmark report still reads it, and goes when
	// that reader does (ROADMAP item 1a).
	ParallelEarlyCancels int64 `json:"parallel_early_cancels,omitempty"`
}

// Snapshot copies the counters. Under concurrent load the copy is not a
// consistent cut across counters, but each counter is exact.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Queries:          m.queries.Load(),
		EmptyRanges:      m.emptyRanges.Load(),
		ScanAbandonments: m.scanAbandonments.Load(),
		StrategySwitches: m.strategySwitches.Load(),
		RacesResolved:    m.racesResolved.Load(),
		BorrowOverflows:  m.borrowOverflows.Load(),
		TacticWins:       map[string]int64{},
		EstimateErrorLog: map[string]int64{},

		QueriesCancelled:        m.cancelled.Load(),
		QueriesDeadlineExceeded: m.deadlineExceeded.Load(),
		QueriesBudgetExceeded:   m.budgetExceeded.Load(),
	}
	s.JoinQueries = m.joinQueries.Load()
	s.JoinOrdersChosen = m.joinOrders.Load()
	s.JoinReoptimizations = m.joinReopts.Load()
	s.JoinSortsAvoided = m.joinSortsAvoided.Load()
	s.PlanCaptureRejected = m.planCaptureRejs.Load()
	for k := range m.joinOpWins {
		if n := m.joinOpWins[k].Load(); n > 0 {
			if s.JoinOperatorWins == nil {
				s.JoinOperatorWins = map[string]int64{}
			}
			s.JoinOperatorWins[joinOpName(k)] = n
		}
	}
	s.ParallelSeqDowngrades = m.parSeqDowngrade.Load()
	for b := range m.parWidths {
		if n := m.parWidths[b].Load(); n > 0 {
			if s.ParallelWidths == nil {
				s.ParallelWidths = map[string]int64{}
			}
			s.ParallelWidths[parWidthLabels[b]] = n
		}
	}
	for k := range m.tacticWins {
		if n := m.tacticWins[k].Load(); n > 0 {
			s.TacticWins[tacticKind(k).String()] = n
		}
	}
	for b := range m.estErr {
		if n := m.estErr[b].Load(); n > 0 {
			s.EstimateErrorLog[estErrLabels[b]] = n
		}
	}
	if n := m.estErrZero.Load(); n > 0 {
		s.EstimateErrorLog[estErrZeroLabel] = n
	}
	return s
}
