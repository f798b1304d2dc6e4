package core

import (
	"fmt"
	"strings"
)

// EventKind classifies a competition decision. Every run-time choice the
// dynamic optimizer makes — tactic selection, scan starts, abandonments,
// strategy switches, race outcomes — is recorded as exactly one kind, so
// behavioural assertions match on structure instead of grepping strings.
type EventKind uint8

// Event kinds, in rough lifecycle order of a retrieval.
const (
	// EvTacticChosen records the arrangement picked at start-retrieval
	// time (Section 7); its EstimatedIO is the projected cost of the
	// chosen plan at decision time.
	EvTacticChosen EventKind = iota
	// EvScanStarted marks a scan (or one continued race leg) opening.
	EvScanStarted
	// EvScanComplete marks a scan running to the end of its range.
	EvScanComplete
	// EvScanAbandoned marks the two-stage competition (Section 6)
	// killing a scan: skipped outright, abandoned mid-flight, a dead
	// race leg, or a stopped background.
	EvScanAbandoned
	// EvStrategySwitch marks the retrieval replacing its strategy
	// mid-run, e.g. Jscan proving sequential retrieval optimal.
	EvStrategySwitch
	// EvRaceStarted marks two adjacent indexes scanning simultaneously
	// (Section 6's limited dynamic reordering).
	EvRaceStarted
	// EvRaceResolved marks a race decided: a winner adopted, both legs
	// dead, the memory budget hit, or the index-only Sscan-vs-Jscan
	// competition settled.
	EvRaceResolved
	// EvBorrowOverflow marks the foreground delivered-RID buffer
	// overflowing, terminating the foreground run (Section 7).
	EvBorrowOverflow
	// EvEmptyRange marks the empty-range shortcut: all retrieval stages
	// cancelled, end of data delivered at once.
	EvEmptyRange
	// EvFilterInstalled marks the sorted tactic handing the completed
	// Jscan filter to the running Fscan.
	EvFilterInstalled
	// EvFinalStage marks the retrieval entering its final stage.
	EvFinalStage
	// EvQueryCancelled marks a retrieval unwound by its execution
	// context: caller cancellation, deadline expiry, or I/O-budget
	// exhaustion. Its ActualIO is the I/O invested before the unwind and
	// its Detail names the cause.
	EvQueryCancelled
	// EvJoinOrderChosen records the join order the greedy planner picked
	// at start time (Indexes carries the table order); EstimatedIO is the
	// projected cost of the full plan.
	EvJoinOrderChosen
	// EvJoinStageStarted marks one join stage opening: Scan names the
	// operator, Indexes the [table, probe index] pair, EstimatedIO the
	// stage's estimated output cardinality.
	EvJoinStageStarted
	// EvJoinReoptimized marks the join executor revising its plan
	// mid-flight — operator fallback within a stage or re-ordering of the
	// remaining tables — after actual cardinality diverged from the
	// estimate past the configured factor.
	EvJoinReoptimized
	// EvParallelWidthChosen records the adaptive parallelism policy
	// picking a scan's worker width (only emitted under
	// Config.AdaptiveParallelism): Width carries the decision,
	// EstimatedIO the scan's appraised cost, and Detail the inputs —
	// the ceiling and the per-worker startup cost.
	EvParallelWidthChosen
	// EvJoinSortAvoided marks an ORDER BY join skipping its final
	// materialized sort because the surviving stage order already
	// satisfied the requested order.
	EvJoinSortAvoided
)

func (k EventKind) String() string {
	switch k {
	case EvTacticChosen:
		return "tactic-chosen"
	case EvScanStarted:
		return "scan-started"
	case EvScanComplete:
		return "scan-complete"
	case EvScanAbandoned:
		return "scan-abandoned"
	case EvStrategySwitch:
		return "strategy-switch"
	case EvRaceStarted:
		return "race-started"
	case EvRaceResolved:
		return "race-resolved"
	case EvBorrowOverflow:
		return "borrow-overflow"
	case EvEmptyRange:
		return "empty-range"
	case EvFilterInstalled:
		return "filter-installed"
	case EvFinalStage:
		return "final-stage"
	case EvQueryCancelled:
		return "query-cancelled"
	case EvJoinOrderChosen:
		return "join-order-chosen"
	case EvJoinStageStarted:
		return "join-stage-started"
	case EvJoinReoptimized:
		return "join-reoptimized"
	case EvParallelWidthChosen:
		return "parallel-width-chosen"
	case EvJoinSortAvoided:
		return "join-sort-avoided"
	default:
		return "?"
	}
}

// TraceEvent is one competition decision; RetrievalStats.Trace renders
// them as human-readable lines (String).
type TraceEvent struct {
	// QueryID identifies the retrieval the event belongs to (unique per
	// process), so a shared sink can partition interleaved streams.
	QueryID uint64
	// Seq is the event's position within its retrieval's stream,
	// starting at 0.
	Seq  int
	Kind EventKind
	// Tactic is the tactic in effect ("" before one is chosen).
	Tactic string
	// Scan names the scan or stage concerned, e.g. "Jscan" or
	// "Sscan(AGE_IX)".
	Scan string
	// Indexes lists the indexes involved in the decision.
	Indexes []string
	// EstimatedIO is the projected I/O relevant to the decision (0 when
	// no projection was available).
	EstimatedIO float64
	// ActualIO is the I/O already invested in the concerned scan (or
	// stage) at decision time.
	ActualIO float64
	// Width is the worker width chosen for the scan (set only on
	// EvParallelWidthChosen).
	Width int
	// Detail is free-form human context; never assert on it.
	Detail string
}

// String renders the event as one human-readable trace line.
func (e TraceEvent) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	if e.Tactic != "" {
		fmt.Fprintf(&b, " [%s]", e.Tactic)
	}
	if e.Scan != "" {
		b.WriteString(" ")
		b.WriteString(e.Scan)
	}
	if len(e.Indexes) > 0 {
		fmt.Fprintf(&b, " %v", e.Indexes)
	}
	if e.Width > 0 {
		fmt.Fprintf(&b, " width=%d", e.Width)
	}
	if e.Detail != "" {
		b.WriteString(": ")
		b.WriteString(e.Detail)
	}
	if e.EstimatedIO != 0 || e.ActualIO != 0 {
		fmt.Fprintf(&b, " (est I/O %.0f, actual I/O %.0f)", e.EstimatedIO, e.ActualIO)
	}
	return b.String()
}

// TraceSink receives every event of every retrieval as it is emitted.
// RunExec may be called from many goroutines at once, so a sink must be
// safe for concurrent Event calls; events of one retrieval arrive in
// Seq order, but events of different retrievals interleave. The sink
// must not block: it runs inside the retrieval's step loop.
type TraceSink interface {
	Event(TraceEvent)
}

// tracer stamps and fans out one retrieval's events: into the
// retrieval's own stats (Events), the cumulative metrics registry, and the user's sink. It is confined to the
// retrieval's goroutine; only the metrics and sink are shared.
type tracer struct {
	st      *RetrievalStats
	sink    TraceSink
	extra   TraceSink // optional per-query sink carried by the ExecCtx
	metrics *Metrics
}

func (t *tracer) emit(ev TraceEvent) {
	if t == nil || t.st == nil {
		return
	}
	ev.QueryID = t.st.QueryID
	ev.Seq = len(t.st.Events)
	t.st.Events = append(t.st.Events, ev)
	if t.metrics != nil {
		t.metrics.onEvent(ev)
	}
	if t.sink != nil {
		t.sink.Event(ev)
	}
	if t.extra != nil {
		t.extra.Event(ev)
	}
}
