// Package feedback closes the loop the telemetry opened: every
// completed dynamic retrieval reports its estimated-vs-actual
// cardinality back into a registry of per-(table, index)
// exponential-moving-average correction factors, and the estimator
// multiplies its next projection for the same index by the learned
// factor. Repeated query shapes therefore start the competition with
// priors the optimizer has already paid to learn.
//
// The registry lives entirely outside the simulated-I/O counters: it
// reads nothing from disk and charges nothing to any tracker, so
// enabling it never moves a counter on the paper's experiment paths.
// It is nil by default everywhere — a nil *Registry is a valid no-op
// receiver for every method.
package feedback

import (
	"sort"
	"sync"
)

// DefaultAlpha is the EMA smoothing weight applied to each new
// observation when New is given a non-positive alpha.
const DefaultAlpha = 0.25

// Correction factors are clamped to [1/maxFactor, maxFactor] so one
// pathological query cannot poison an index's prior beyond recovery.
const maxFactor = 16.0

// Key identifies one correction slot: an index of a table. Table-level
// observations (Tscan) use an empty Index.
type Key struct {
	Table string
	Index string
}

// entry holds the EMA state of one key. Factors are multiplicative
// corrections: estimate × factor ≈ actual.
type entry struct {
	card        float64 // actual/estimated cardinality EMA
	cardSamples int64
}

// Registry accumulates correction factors. Safe for concurrent use; a
// nil Registry ignores observations and returns neutral corrections.
type Registry struct {
	alpha float64

	mu sync.RWMutex
	m  map[Key]*entry
}

// New creates an empty registry with the given EMA weight (alpha <= 0
// or >= 1 selects DefaultAlpha).
func New(alpha float64) *Registry {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultAlpha
	}
	return &Registry{alpha: alpha, m: make(map[Key]*entry)}
}

func clampRatio(r float64) float64 {
	if r < 1/maxFactor {
		return 1 / maxFactor
	}
	if r > maxFactor {
		return maxFactor
	}
	return r
}

// fold moves an EMA toward a new clamped ratio. First sample adopts
// the ratio outright so a single observation already corrects.
func (r *Registry) fold(ema float64, samples int64, ratio float64) float64 {
	ratio = clampRatio(ratio)
	if samples == 0 {
		return ratio
	}
	return clampRatio(ema + r.alpha*(ratio-ema))
}

// ObserveCardinality folds one estimated-vs-actual RID-count sample
// for (table, index) into the registry. Non-positive inputs are
// ignored: a zero estimate carries no ratio, and a zero actual is the
// empty-range case the estimator already handles exactly.
func (r *Registry) ObserveCardinality(table, index string, estimated, actual float64) {
	if r == nil || estimated <= 0 || actual <= 0 {
		return
	}
	k := Key{Table: table, Index: index}
	r.mu.Lock()
	e := r.m[k]
	if e == nil {
		e = &entry{}
		r.m[k] = e
	}
	e.card = r.fold(e.card, e.cardSamples, actual/estimated)
	e.cardSamples++
	r.mu.Unlock()
}

// CardCorrection returns the multiplicative cardinality correction for
// (table, index): 1 when the registry is nil or the key unseen.
func (r *Registry) CardCorrection(table, index string) float64 {
	if r == nil {
		return 1
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e := r.m[Key{Table: table, Index: index}]; e != nil && e.cardSamples > 0 {
		return e.card
	}
	return 1
}

// CorrectionFor curries CardCorrection over one table, in the shape
// estimate.Options wants. A nil registry returns nil (feature off).
func (r *Registry) CorrectionFor(table string) func(index string) float64 {
	if r == nil {
		return nil
	}
	return func(index string) float64 { return r.CardCorrection(table, index) }
}

// Len returns the number of keys with at least one observation.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// Correction is one row of a Snapshot.
type Correction struct {
	Table       string  `json:"table"`
	Index       string  `json:"index,omitempty"`
	Card        float64 `json:"card_factor"`
	CardSamples int64   `json:"card_samples"`
}

// Snapshot copies the registry, sorted by (table, index) so output is
// deterministic. A nil registry snapshots empty.
func (r *Registry) Snapshot() []Correction {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]Correction, 0, len(r.m))
	for k, e := range r.m {
		out = append(out, Correction{
			Table: k.Table, Index: k.Index,
			Card: e.card, CardSamples: e.cardSamples,
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Index < out[j].Index
	})
	return out
}
