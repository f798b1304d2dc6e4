// Package core implements the paper's contribution: the dynamic
// single-table retrieval optimizer of Rdb/VMS V4.0 (Sections 4–7).
//
// A retrieval is organized as a foreground process (Fgr), which delivers
// records immediately and can complete the whole retrieval by itself,
// and a background process (Bgr), which runs Jscan — the joint scan of
// fetch-needed indexes — to produce the shortest possible RID list or to
// recommend Tscan. A final stage (Fin) runs only upon Bgr completion, as
// the alternative to Fgr's record delivery. Fgr and Bgr run
// simultaneously at proportional speeds under a cooperative step
// scheduler, compete under the criterion of Section 6, and cooperate by
// exchanging data (Fgr borrows RIDs from Bgr; Fin filters out records
// Fgr already delivered).
//
// Four tactics from Section 7 are implemented:
//
//	background-only — total time, fetch-needed indexes only: Jscan + Fin
//	fast-first      — Fgr borrows RIDs from Jscan and fetches immediately
//	sorted          — order-needed Fscan in Fgr + filter-producing Jscan in Bgr
//	index-only      — best Sscan in Fgr racing Jscan in Bgr
//
// plus the statically clear cases (no index -> Tscan; a lone
// self-sufficient index -> Sscan) and the static-threshold Jscan variant
// of [MoHa90] as an experimental baseline.
package core

import (
	"runtime"
	"sync/atomic"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/competition"
	"rdbdyn/internal/estimate"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// Goal is the retrieval optimization goal of Section 4.
type Goal uint8

// Optimization goals. GoalDefault resolves to total-time unless the
// query plan context dictates otherwise.
const (
	GoalDefault Goal = iota
	GoalFastFirst
	GoalTotalTime
)

func (g Goal) String() string {
	switch g {
	case GoalFastFirst:
		return "FAST FIRST"
	case GoalTotalTime:
		return "TOTAL TIME"
	default:
		return "DEFAULT"
	}
}

// ControlNode is the plan node that immediately controls a retrieval
// node; Section 4 derives the optimization goal from it.
type ControlNode uint8

// Control node kinds.
const (
	ControlNone ControlNode = iota
	ControlExists
	ControlLimit
	ControlSort
	ControlAggregate
)

// InferGoal applies Section 4's rule: EXISTS or LIMIT TO control sets
// fast-first; SORT or aggregate control sets total-time; otherwise the
// user-specified or default goal applies.
func InferGoal(control ControlNode, user Goal) Goal {
	switch control {
	case ControlExists, ControlLimit:
		return GoalFastFirst
	case ControlSort, ControlAggregate:
		return GoalTotalTime
	default:
		if user == GoalDefault {
			return GoalTotalTime
		}
		return user
	}
}

// Query is a single-table retrieval request.
type Query struct {
	Table       *catalog.Table
	Restriction expr.Expr     // nil = no restriction
	Binds       expr.Bindings // host-variable values for this run
	Projection  []int         // column positions to deliver; nil = all
	OrderBy     []int         // requested order columns; nil = no order
	// OrderDesc inverts the requested order to descending (one
	// direction for the whole ORDER BY).
	OrderDesc bool
	Limit     int // deliver at most this many rows; 0 = all
	Goal      Goal
	// Control is the controlling plan node, used when Goal is
	// GoalDefault.
	Control ControlNode
	// RIDs makes the retrieval deliver, in place of each qualifying
	// row's columns, the row's RID as the two-column row (heap page
	// number, slot): what DELETE and UPDATE need of their victims. Set
	// Projection to an empty, non-nil slice with it, so an index over
	// the restriction's columns is self-sufficient.
	RIDs bool
	// join is set on a table access of a join pipeline (join.go).
	join *joinAccess
}

// joinAccess is what a join's table access inherits from the join. Such
// a retrieval counts no query and no tactic win of its own.
type joinAccess struct {
	res *estimate.Result // gatherJoinInfo's appraisal of the restriction: handed in, not recomputed
	trc *tracer          // the join's tracer: the access's facts and events are the join's
}

// EffectiveGoal resolves the query's goal per Section 4.
func (q *Query) EffectiveGoal() Goal { return InferGoal(q.Control, q.Goal) }

// neededColumns lists the columns the query touches (repeats allowed):
// the restriction's columns plus the projection (all columns when the
// projection is open) plus the order columns.
func (q *Query) neededColumns() []int {
	cols := append(append(expr.Columns(q.Restriction), q.Projection...), q.OrderBy...)
	if q.Projection == nil {
		for i := range q.Table.Columns {
			cols = append(cols, i)
		}
	}
	return cols
}

// Classification sorts a table's indexes into the paper's three roles
// for one query (Section 4): self-sufficient, order-needed, and
// fetch-needed. An index can be both order-needed and self-sufficient.
type Classification struct {
	SelfSufficient []*catalog.Index
	OrderNeeded    []*catalog.Index
	// FetchNeeded are indexes whose leading column carries a sargable
	// restriction but which cannot deliver the result alone.
	FetchNeeded []*catalog.Index
	// EmptyRange reports that some index's sargable conjuncts
	// contradict each other under the current bindings. Since the
	// restriction is a conjunction, the whole query matches nothing and
	// the retrieval can deliver end-of-data at once.
	EmptyRange bool
}

// Classify computes the classification under the query's bindings. Only
// indexes restricted by at least one sargable conjunct on their leading
// column are useful for Jscan; order-needed indexes are useful even
// unrestricted.
func Classify(q *Query) Classification {
	var cl Classification
	needed := q.neededColumns()
	for _, ix := range q.Table.Indexes {
		lo, hi, n, empty := ix.RestrictionBounds(q.Restriction, q.Binds)
		if empty {
			cl.EmptyRange = true
		}
		restricted := n > 0 && (lo != nil || hi != nil)
		covers := ix.Covers(needed)
		ordered := len(q.OrderBy) > 0 && ix.DeliversOrder(q.OrderBy)
		if covers && (restricted || ordered || q.Restriction == nil) {
			cl.SelfSufficient = append(cl.SelfSufficient, ix)
		}
		if ordered {
			cl.OrderNeeded = append(cl.OrderNeeded, ix)
		}
		if restricted && !covers {
			cl.FetchNeeded = append(cl.FetchNeeded, ix)
		}
	}
	return cl
}

// Config tunes the dynamic optimizer.
type Config struct {
	// Criterion is the Section 6 strategy-switch rule.
	Criterion competition.SwitchCriterion
	// RID sizes the hybrid RID containers.
	RID rid.Config
	// FgBufferCap bounds the foreground delivered-RID buffer; overflow
	// terminates the foreground in favor of the background (Section 7).
	// 0 means the default; a negative value means unbounded.
	FgBufferCap int
	// RaceFactor: two adjacent Jscan indexes whose estimates are
	// within this factor are scanned simultaneously to resolve their
	// true order (Section 6's limited reordering). 0 means the
	// default; a negative value disables racing.
	RaceFactor float64
	// StaticThresholds switches Jscan to the [MoHa90] baseline: the
	// abandonment thresholds are frozen from the initial estimates and
	// never readjusted to fresher guaranteed-best costs.
	StaticThresholds bool
	// DisableCompetition turns off scan abandonment entirely (for
	// ablation experiments).
	DisableCompetition bool
	// ShortRange is the initial-stage shortcut threshold.
	ShortRange int
	// Trace, when set, receives every retrieval's TraceEvents as they
	// are emitted; with no sink here or on the query's ExecCtx, no event
	// is built. The sink must be safe for concurrent use (see TraceSink)
	// and adds no simulated I/O.
	Trace TraceSink
	// Feedback closes the estimation loop: each completed dynamic
	// retrieval and join folds its estimated-vs-actual cardinality into
	// the optimizer's learned record of the index (or table) it
	// observed, and later estimates are multiplied by the learned
	// correction. Off (the default) keeps estimation purely structural —
	// the paper's behavior, and the setting every experiment runs under.
	Feedback bool
	// Parallelism is the intra-query worker budget of the two scans
	// that partition, Tscan and Fin, into ordered morsels; everything
	// else, a Jscan race included, runs on the cooperative scheduler at
	// every width. 0 or 1 keeps every scan on it (the default — all
	// experiments run there); a negative value resolves to
	// runtime.GOMAXPROCS(0); values above 1 are honored as given (the
	// simulated cost model is deterministic regardless of the physical
	// core count). Parallel execution preserves result rows, their
	// order, and Metrics exactly, and attributed I/O too on a pool that
	// does not evict; see DESIGN.md for the invariants.
	Parallelism int
	// AdaptiveParallelism lets the optimizer pick each Tscan's and Fin's
	// worker width itself — from the scan's appraised I/O estimate and
	// the per-worker startup cost — instead of always partitioning to
	// the full Parallelism budget. Parallelism keeps its meaning as the
	// ceiling; small scans stay sequential, huge cold scans fan out
	// up to the cap. It selects the width policy and nothing else. Off
	// by default — the paper's experiments and the static knob behave
	// exactly as before.
	AdaptiveParallelism bool
}

// maxParallelism caps the worker fan-out per scan; a backstop against
// absurd knob values, far above any useful width.
const maxParallelism = 64

// stepEntries is how many index entries one Jscan/Sscan/Fscan step
// processes; Tscan steps are one page, fetching steps a few fetches.
const stepEntries = 128

// effectiveWorkers resolves the Parallelism knob to a concrete worker
// count (>= 1).
func (c Config) effectiveWorkers() int {
	p := c.Parallelism
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	if p > maxParallelism {
		p = maxParallelism
	}
	return p
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Criterion:   competition.DefaultSwitchCriterion(),
		RID:         rid.DefaultConfig(),
		FgBufferCap: 1024,
		RaceFactor:  2,
		ShortRange:  20,
	}
}

// WithDefaults returns the config with every zero-valued field replaced
// by its DefaultConfig value, field by field, so a caller setting a
// single knob keeps the paper's defaults for everything else.
//
// Numeric fields where "off" is a sensible request use negative values
// for it (RaceFactor < 0 disables racing, FgBufferCap < 0 is
// unbounded); 0 always means "use the default". Boolean fields
// (StaticThresholds, DisableCompetition) need no sentinel: false is the
// paper's behaviour, so the zero value is already the default.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.Criterion.Threshold == 0 {
		c.Criterion.Threshold = d.Criterion.Threshold
	}
	if c.Criterion.ScanCostFrac == 0 {
		c.Criterion.ScanCostFrac = d.Criterion.ScanCostFrac
	}
	if c.RID.SmallCap == 0 {
		c.RID.SmallCap = d.RID.SmallCap
	}
	if c.RID.MemBudget == 0 {
		c.RID.MemBudget = d.RID.MemBudget
	}
	if c.FgBufferCap == 0 {
		c.FgBufferCap = d.FgBufferCap
	}
	if c.RaceFactor == 0 {
		c.RaceFactor = d.RaceFactor
	}
	if c.ShortRange == 0 {
		c.ShortRange = d.ShortRange
	}
	return c
}

// RetrievalStats describes what a retrieval did.
type RetrievalStats struct {
	// QueryID identifies this retrieval process-wide; every TraceEvent
	// of the retrieval carries it.
	QueryID uint64
	// Tactic names the arrangement chosen at start-retrieval time.
	Tactic string
	// Strategy describes the scans actually used, e.g.
	// "Jscan(CITY_IX,AGE_IX)+Fin" or "Tscan".
	Strategy string
	// IO is the I/O attributable to this retrieval (productive stages).
	IO storage.IOStats
	// EstimateIO is the I/O spent by the initial estimation stage.
	EstimateIO int64
	// RowsDelivered counts rows handed to the caller.
	RowsDelivered int
	// FgRows counts rows delivered by the foreground process.
	FgRows int
	// FinalListLen is the length of the background's final RID list
	// (-1 when the background did not complete).
	FinalListLen int
	// WinningOrder is the index order that won, reused to pre-arrange
	// the next run's initial stage.
	WinningOrder []string
	// Estimates summarizes the initial stage's per-index appraisals,
	// in the order the stage settled on. Consumers: the learned
	// corrections (estimated-vs-actual cardinality) and plan capture
	// (seeding a frozen replay's Jscan thresholds).
	Estimates []EstimateSummary
	// JoinStages describes each executed stage of a multi-table
	// retrieval in execution order (empty for single-table retrievals).
	// The Tactic of a join retrieval is "join".
	JoinStages []JoinStageStats
	// SortAvoided marks an ORDER BY join delivered in plan order: the
	// surviving stage order satisfied the requested order, so the final
	// materialized sort was skipped.
	SortAvoided bool

	// The facts the engine reads back of its own decisions, recorded
	// where each decision is taken, traced or not; a join's table
	// accesses record into the join's stats.
	//
	// planEstIO is the chosen plan's projected I/O at start-retrieval
	// time: with EstimateIO, the estimate-error histogram's prediction.
	planEstIO float64
	// planIndex is the index the chosen arrangement's foreground scans
	// ("" when none does).
	planIndex string
	// scansStarted counts the Jscan index scans opened, continued race
	// legs included; CapturePlan weighs them against WinningOrder.
	scansStarted int
	// switchedTo names the scan a mid-run strategy switch put in the
	// plan's place ("" when none did).
	switchedTo string
	// raced, overflowed and cancelled mark a Jscan race, a foreground
	// buffer overflow and an execution-context unwind.
	raced, overflowed, cancelled bool
	// events counts the TraceEvents emitted so far: the next one's Seq.
	events int
}

// JoinStageStats is the est-vs-actual record of one executed join
// stage (the driver scan is stage 0 with an empty Operator-specific
// fields where they do not apply).
type JoinStageStats struct {
	// Table is the display name of the table this stage brought into
	// the join: its FROM alias when one was declared, else the catalog
	// name.
	Table string
	// TableIdx is the table's position in JoinQuery.Tables. Feedback
	// observations key on the catalog name through it, so self-joined
	// aliases of one table share one learned correction.
	TableIdx int
	// Operator names the stage's execution strategy: the driver's
	// single-table tactic for stage 0, else "nl", "inl", or "ridx".
	Operator string
	// Index is the inner probe index for inl/ridx, the build-side
	// restriction index for an index-assisted hj build, or the driver's
	// scan index ("" for nl, heap-build hj, and tscan drivers).
	Index string
	// EstRows is the stage's estimated output cardinality at the time
	// it started; ActualRows is what it produced.
	EstRows    float64
	ActualRows int
	// IO is the simulated I/O attributed to this stage.
	IO int64
	// Reoptimized is true when this stage's operator or position was
	// revised mid-flight.
	Reoptimized bool
}

// EstimateSummary is the slim record of one initial-stage appraisal
// kept on RetrievalStats.
type EstimateSummary struct {
	Index string
	RIDs  float64
	Exact bool
}

// Rows is the pull-based result iterator every retrieval returns.
type Rows interface {
	// Next returns the next result row; ok=false at end of data.
	Next() (row expr.Row, ok bool, err error)
	// Close releases resources; safe to call early (the paper's
	// forceful "close retrieval").
	Close() error
	// Stats reports retrieval statistics (valid any time; final after
	// exhaustion or Close).
	Stats() RetrievalStats
}

// errRows is a Rows that fails immediately (used for setup errors that
// must surface through the iterator contract).
type errRows struct{ err error }

func (e errRows) Next() (expr.Row, bool, error) { return nil, false, e.err }
func (e errRows) Close() error                  { return nil }
func (e errRows) Stats() RetrievalStats         { return RetrievalStats{Tactic: "error"} }

// emptyRows delivers end-of-data at once — the paper's empty-range
// shortcut ("an empty range detection cancels all retrieval stages and
// delivers the 'end of data' condition at once").
type emptyRows struct{ stats RetrievalStats }

func (e *emptyRows) Next() (expr.Row, bool, error) { return nil, false, nil }
func (e *emptyRows) Close() error                  { return nil }
func (e *emptyRows) Stats() RetrievalStats         { return e.stats }

// projectRow narrows a row to the given column positions (nil = all).
func projectRow(row expr.Row, projection []int) expr.Row {
	if projection == nil {
		return row
	}
	out := make(expr.Row, len(projection))
	for i, c := range projection {
		out[i] = row[c]
	}
	return out
}

// queryIDs hands out process-wide retrieval identifiers.
var queryIDs atomic.Uint64

func nextQueryID() uint64 { return queryIDs.Add(1) }
