// Package estimate implements the initial estimation stage of the
// paper's Section 5 plus the I/O cost model shared by the static and
// dynamic optimizers.
//
// For every index usable by a query, the restriction is reduced to a
// range on the index's leading column and the B-tree itself is used as
// a hierarchical histogram via the descent-to-split-node method. The
// indexes are then arranged in ascending estimated-RID order — the order
// Jscan wants to scan them in. The stage honors the paper's
// cost-control techniques:
//
//   - indexes are pre-arranged in the most probable ascending order
//     (the caller passes the previous retrieval's winning order);
//   - discovery of a very short range terminates estimation immediately;
//   - discovery of an empty range cancels all retrieval stages — the
//     caller delivers "end of data" at once.
package estimate

import (
	"math"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// IndexEstimate is the initial-stage appraisal of one index.
type IndexEstimate struct {
	Index *catalog.Index
	// Lo and Hi are the encoded scan bounds the restriction imposes on
	// the index (composite prefixes included); nil = open side.
	Lo, Hi []byte
	// Sargable is how many conjuncts contributed to the bounds; 0
	// means the index gets no restriction (its scan would read
	// everything).
	Sargable int
	// RIDs is the estimated number of matching index entries.
	RIDs float64
	// Exact is true when the descent reached a leaf and RIDs is exact.
	Exact bool
	// Corrected is true when RIDs was scaled by a feedback correction
	// factor (Options.Correction).
	Corrected bool
	// Empty is true when the range is provably empty.
	Empty bool
	// EstimateCost is the I/O charged while producing this estimate.
	EstimateCost int64
}

// Options tunes the initial stage.
type Options struct {
	// ShortRange stops further estimation once an exact estimate at or
	// below this many RIDs is found (paper: "If a very short range is
	// discovered ... the initial stage estimation terminates
	// immediately to save on estimation cost").
	ShortRange int
	// PreviousOrder, if non-nil, gives index names in the order the
	// previous retrieval found optimal; estimation probes them in that
	// order ("The freshly (and optimally) reordered indexes are used
	// for the next retrieval estimates as a starting point").
	PreviousOrder []string
	// Governor, if non-nil, is the query's cancellation/budget
	// authority: estimation descents charge it and abort once it trips.
	Governor *storage.Governor
	// Correction, if non-nil, returns a multiplicative cardinality
	// correction factor for an index name — the feedback loop's learned
	// actual/estimated ratio. It adjusts inexact (extrapolated)
	// estimates only: an exact leaf count needs no correction. Nil
	// keeps the stage purely structural (the paper's behavior).
	Correction func(index string) float64
}

// DefaultOptions returns the standard initial-stage tuning.
func DefaultOptions() Options { return Options{ShortRange: 20} }

// Result is the outcome of the initial stage.
type Result struct {
	// Estimates holds appraised indexes in ascending estimated-RID
	// order. When estimation stopped early (short range), unprobed
	// indexes appear after probed ones, unappraised (RIDs = NaN is not
	// used; they carry Sargable counts but Probed=false).
	Estimates []IndexEstimate
	// EmptyRange is true when some index proves the restriction can
	// match nothing: the entire retrieval is canceled.
	EmptyRange bool
	// Shortcut is true when estimation stopped early on a short range.
	Shortcut bool
	// TotalCost is the I/O spent on estimation.
	TotalCost int64
}

// Appraise runs the initial stage over the given indexes for a
// restriction under bindings.
func Appraise(indexes []*catalog.Index, restriction expr.Expr, binds expr.Bindings, opts Options) (Result, error) {
	if opts.ShortRange <= 0 {
		opts.ShortRange = 20
	}
	ordered := reorder(indexes, opts.PreviousOrder)
	var res Result
	for _, ix := range ordered {
		e, err := appraiseOne(ix, restriction, binds, opts.Governor)
		if err != nil {
			return Result{}, err
		}
		if opts.Correction != nil && !e.Exact && !e.Empty && e.RIDs > 0 {
			if f := opts.Correction(ix.Name); f > 0 && f != 1 {
				e.RIDs *= f
				e.Corrected = true
			}
		}
		res.TotalCost += e.EstimateCost
		res.Estimates = append(res.Estimates, e)
		if e.Empty {
			res.EmptyRange = true
			return res, nil
		}
		if e.Exact && e.RIDs <= float64(opts.ShortRange) {
			res.Shortcut = true
			break
		}
	}
	sortByRIDs(res.Estimates)
	return res, nil
}

func appraiseOne(ix *catalog.Index, restriction expr.Expr, binds expr.Bindings, gov *storage.Governor) (IndexEstimate, error) {
	e := IndexEstimate{Index: ix}
	var empty bool
	e.Lo, e.Hi, e.Sargable, empty = ix.RestrictionBounds(restriction, binds)
	if empty {
		e.Empty = true
		return e, nil
	}
	// The refined edge-descent estimator: leaf-exact at the range
	// boundaries, extrapolated occupancy in the interior. A private
	// tracker attributes the descent's I/O to this appraisal even while
	// other queries drive the shared pool.
	tr := storage.NewTracker(gov)
	rids, exact, err := ix.Tree.EstimateRangeRefinedTracked(e.Lo, e.Hi, tr)
	if err != nil {
		return e, err
	}
	e.EstimateCost = tr.IOCost()
	e.RIDs = rids
	e.Exact = exact
	if e.Exact && e.RIDs == 0 {
		// Exact empty: the paper's empty-range detection.
		e.Empty = true
	}
	return e, nil
}

// reorder arranges indexes so that names in prev come first, in prev's
// order; the rest keep their original order.
func reorder(indexes []*catalog.Index, prev []string) []*catalog.Index {
	if len(prev) == 0 {
		return indexes
	}
	out := make([]*catalog.Index, 0, len(indexes))
	used := make(map[string]bool, len(indexes))
	for _, name := range prev {
		for _, ix := range indexes {
			if ix.Name == name && !used[name] {
				out = append(out, ix)
				used[name] = true
			}
		}
	}
	for _, ix := range indexes {
		if !used[ix.Name] {
			out = append(out, ix)
		}
	}
	return out
}

// sortByRIDs sorts ascending by estimated RIDs (stable for ties).
func sortByRIDs(es []IndexEstimate) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].RIDs < es[j-1].RIDs; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// CostModel converts cardinalities into I/O cost estimates. All costs
// are in pages (the buffer pool's currency).
type CostModel struct {
	// TablePages is the heap size in pages.
	TablePages int
	// TableRows is the heap cardinality.
	TableRows int64
	// ClusterRatio estimates how clustered an index is (1 = key order
	// equals physical order). Fetch costs interpolate between one I/O
	// per row (unclustered) and sequential page reads (clustered).
	ClusterRatio float64
}

// RowsPerPage returns the average heap rows per page.
func (m CostModel) RowsPerPage() float64 {
	if m.TablePages == 0 {
		return 1
	}
	return float64(m.TableRows) / float64(m.TablePages)
}

// TscanCost is the cost of a full sequential scan.
func (m CostModel) TscanCost() float64 { return float64(m.TablePages) }

// LeafPages estimates leaf pages touched when scanning rids index
// entries with the given average leaf occupancy.
func (m CostModel) LeafPages(rids, avgLeafEntries float64) float64 {
	if avgLeafEntries <= 0 {
		avgLeafEntries = 1
	}
	return math.Ceil(rids / avgLeafEntries)
}

// FetchCost estimates the I/O of fetching rids data records through an
// index with the model's cluster ratio, assuming fetches in key order.
// Unclustered fetches approach one page read per row (bounded by the
// Cardenas estimate of distinct pages when the list is sorted);
// clustered fetches approach sequential page reads.
func (m CostModel) FetchCost(rids float64, sorted bool) float64 {
	if rids <= 0 {
		return 0
	}
	perPage := m.RowsPerPage()
	clustered := rids / perPage
	unclustered := rids
	if sorted {
		unclustered = m.DistinctPages(rids)
	}
	c := m.ClusterRatio
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	return c*clustered + (1-c)*unclustered
}

// DistinctPages is the Cardenas estimate of distinct pages hit by rids
// random rows: P * (1 - (1 - 1/P)^rids).
func (m CostModel) DistinctPages(rids float64) float64 {
	p := float64(m.TablePages)
	if p <= 0 {
		return 0
	}
	return p * (1 - math.Pow(1-1/p, rids))
}

// SscanCost is the cost of a self-sufficient index scan over rids
// entries: the descent plus the leaf pages.
func (m CostModel) SscanCost(rids, avgLeafEntries float64, height int) float64 {
	return float64(height) + m.LeafPages(rids, avgLeafEntries)
}

// FscanCost is the classical indexed retrieval cost: index scan plus
// immediate (unsorted-order) record fetches.
func (m CostModel) FscanCost(rids, avgLeafEntries float64, height int) float64 {
	return m.SscanCost(rids, avgLeafEntries, height) + m.FetchCost(rids, false)
}

// JscanFinalCost is the projected cost of the final retrieval stage
// from a RID list of the given size: fetches in sorted RID order.
func (m CostModel) JscanFinalCost(rids float64) float64 {
	return m.FetchCost(rids, true)
}
