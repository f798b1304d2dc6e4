package core

import (
	"context"
	"errors"
	"sync/atomic"

	"rdbdyn/internal/storage"
)

// ErrBudgetExceeded is returned from Rows.Next once a query has consumed
// its per-query simulated-I/O budget. It is the storage layer's sentinel
// re-exported at the optimizer boundary.
var ErrBudgetExceeded = storage.ErrBudgetExceeded

// ExecCtx is the per-query execution context: the caller's
// context.Context (carrying cancellation and deadline) plus an optional
// per-query simulated-I/O budget and an optional per-query trace sink.
// It is threaded from engine.DB.QueryContext through the optimizer into
// every scan strategy, the jscan two-stage competition, the final stage,
// B-tree descent and leaf iteration, RID list spill/read-back, and —
// via the storage.Governor it owns — into every BufferPool page fetch,
// which is the cooperative cancellation checkpoint: a cancelled query
// unwinds within one simulated page I/O.
//
// A nil *ExecCtx is the free, never-cancelling context; every method is
// nil-safe, so a caller with no context passes nil and keeps the exact
// seed behaviour and cost accounting.
type ExecCtx struct {
	ctx   context.Context
	gov   *storage.Governor
	trace TraceSink
	// cancelRecorded dedupes the query-cancelled metric when an unwind
	// crosses layers (e.g. a sorted wrapper draining an inner retrieval
	// that already recorded it).
	cancelRecorded atomic.Bool
}

// ioBudgetKey carries a per-query simulated-I/O budget inside a
// context.Context, so callers of the plain ctx-based APIs can set a
// budget without reaching for core directly.
type ioBudgetKey struct{}

// WithIOBudget returns a context carrying a per-query simulated-I/O
// budget (<= 0 clears it). NewExecCtx picks it up.
func WithIOBudget(ctx context.Context, ios int64) context.Context {
	return context.WithValue(ctx, ioBudgetKey{}, ios)
}

// IOBudgetFromContext returns the budget set by WithIOBudget (0 = none).
func IOBudgetFromContext(ctx context.Context) int64 {
	if ctx == nil {
		return 0
	}
	if v, ok := ctx.Value(ioBudgetKey{}).(int64); ok && v > 0 {
		return v
	}
	return 0
}

// NewExecCtx builds an execution context for ctx with the given
// simulated-I/O budget; budget <= 0 falls back to any budget carried by
// the context (WithIOBudget). It returns nil — the free execution
// context — when ctx can never cancel and no budget applies, so
// wrapping context.Background costs nothing.
func NewExecCtx(ctx context.Context, budget int64) *ExecCtx {
	if ctx == nil {
		ctx = context.Background()
	}
	if budget <= 0 {
		budget = IOBudgetFromContext(ctx)
	}
	gov := storage.NewGovernor(ctx, budget)
	if gov == nil {
		return nil
	}
	return &ExecCtx{ctx: ctx, gov: gov}
}

// WithTrace attaches a per-query trace sink, fanning this one query's
// events out to it in addition to the optimizer-wide Config.Trace sink.
// It returns a non-nil ExecCtx even when e is nil.
func (e *ExecCtx) WithTrace(sink TraceSink) *ExecCtx {
	if e == nil {
		e = &ExecCtx{ctx: context.Background()}
	}
	e.trace = sink
	return e
}

// Governor returns the storage-layer governor scans hand to their
// trackers (nil for a free execution context).
func (e *ExecCtx) Governor() *storage.Governor {
	if e == nil {
		return nil
	}
	return e.gov
}

// Err reports why the query must stop — context.Canceled,
// context.DeadlineExceeded, or ErrBudgetExceeded — or nil to continue.
func (e *ExecCtx) Err() error {
	if e == nil {
		return nil
	}
	if e.gov != nil {
		return e.gov.Err()
	}
	return e.ctx.Err()
}

// IOSpent returns the simulated I/Os charged against the budget so far.
func (e *ExecCtx) IOSpent() int64 { return e.Governor().Spent() }

func (e *ExecCtx) traceSink() TraceSink {
	if e == nil {
		return nil
	}
	return e.trace
}

// markCancelRecorded returns true exactly once per ExecCtx; the metrics
// registry uses it so one unwind counts as one cancellation.
func (e *ExecCtx) markCancelRecorded() bool {
	if e == nil {
		return false
	}
	return e.cancelRecorded.CompareAndSwap(false, true)
}

// IsCancellation reports whether err is an execution-context unwind
// (caller cancel, deadline, or budget) as opposed to a storage fault.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, storage.ErrBudgetExceeded)
}
