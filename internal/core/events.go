package core

import (
	"fmt"
	"strings"
	"sync"
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

var eventKindNames = [...]string{
	EvTacticChosen:        "tactic-chosen",
	EvScanStarted:         "scan-started",
	EvScanComplete:        "scan-complete",
	EvScanAbandoned:       "scan-abandoned",
	EvStrategySwitch:      "strategy-switch",
	EvRaceStarted:         "race-started",
	EvRaceResolved:        "race-resolved",
	EvBorrowOverflow:      "borrow-overflow",
	EvEmptyRange:          "empty-range",
	EvFilterInstalled:     "filter-installed",
	EvFinalStage:          "final-stage",
	EvQueryCancelled:      "query-cancelled",
	EvJoinOrderChosen:     "join-order-chosen",
	EvJoinStageStarted:    "join-stage-started",
	EvJoinReoptimized:     "join-reoptimized",
	EvParallelWidthChosen: "parallel-width-chosen",
	EvJoinSortAvoided:     "join-sort-avoided",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "?"
}

// TraceEvent is one competition decision as a sink receives it. It is
// built only for a sink: a retrieval nobody traces formats nothing.
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

// TraceSink receives every event of every retrieval it is attached to,
// as it is emitted: per optimizer through Config.Trace, per query
// through ExecCtx.WithTrace. RunExec may be called from many goroutines
// at once, so a sink must be safe for concurrent Event calls; events of
// one retrieval arrive in Seq order, but events of different retrievals
// interleave. The sink must not block: it runs inside the retrieval's
// step loop.
type TraceSink interface {
	Event(TraceEvent)
}

// TraceLog is the collecting TraceSink: it keeps every event it is
// sent, in arrival order, until Take hands them over. Safe for
// concurrent use; partition by QueryID when retrievals interleave.
type TraceLog struct {
	mu     sync.Mutex
	events []TraceEvent
}

// Event appends ev to the log.
func (l *TraceLog) Event(ev TraceEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Take returns the events logged since the last Take and empties the
// log.
func (l *TraceLog) Take() []TraceEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.events
	l.events = nil
	return evs
}

// tracer is one retrieval's decision recorder: each decision site
// counts itself through decide, records the facts the engine reads back
// in st, and builds its TraceEvent only when decide reports a sink to
// hand it to. A join's table accesses record through a copy of the
// join's tracer, so their facts and events are the join's. Confined to
// the retrieval's goroutine; only the metrics and sinks are shared.
type tracer struct {
	st      *RetrievalStats
	metrics *Metrics
	sink    TraceSink // Config.Trace
	extra   TraceSink // the ExecCtx's per-query sink
}

// decide counts one decision of kind, traced or not, and reports
// whether a sink reads its event.
func (t *tracer) decide(kind EventKind) bool {
	t.metrics.decisions[kind].Add(1)
	return t.sink != nil || t.extra != nil
}

// emit stamps ev with the retrieval's QueryID and next Seq and hands it
// to the sinks. Call it only when decide says a sink reads it.
func (t *tracer) emit(ev TraceEvent) {
	ev.QueryID = t.st.QueryID
	ev.Seq = t.st.events
	t.st.events++
	if t.sink != nil {
		t.sink.Event(ev)
	}
	if t.extra != nil {
		t.extra.Event(ev)
	}
}
