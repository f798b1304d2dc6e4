package core

import (
	"sort"
	"strings"

	"rdbdyn/internal/catalog"
)

// learnedKey names one learned record: an index of a table, or the
// table itself under index "". A join's whole-output record lives under
// its table-set name (learnedTable).
type learnedKey struct{ table, index string }

// learned is everything the optimizer has learned about one (table,
// index) across runs, stamped with the catalog state it was learned in.
// A record whose stamp has gone stale (catalog.Stamp.Stale: an index was
// created or dropped, or the rows moved too far) is re-derived: emptied
// and restamped, so the next run samples, orders and corrects afresh.
type learned struct {
	tabs  []*catalog.Table // the table, or a join's tables, the stamp sums over
	stamp catalog.Stamp

	// cluster is the index's sampled cluster ratio, once sampled.
	cluster float64
	sampled bool
	// order is the table's winning Jscan index order (its "" record),
	// replaced wholesale by each completed Jscan, never mutated.
	order []string
	// card is the cardinality correction: an EMA of actual/estimated
	// over cardSamples observations. Only Config.Feedback observes.
	card        float64
	cardSamples int64
}

// The correction EMA: the first observation is adopted outright, each
// later one moves the factor feedbackAlpha of the way toward it, and
// the factor stays within [1/maxCorrection, maxCorrection], so one
// pathological query cannot poison an index's prior beyond recovery.
const (
	feedbackAlpha = 0.25
	maxCorrection = 16.0
)

func clampCorrection(r float64) float64 {
	return min(max(r, 1/maxCorrection), maxCorrection)
}

// observe folds one estimated-vs-actual cardinality sample into the
// correction. Non-positive inputs are ignored: a zero estimate carries
// no ratio, and a zero actual is the empty-range case the estimator
// already handles exactly.
func (rec *learned) observe(est, actual float64) {
	if est <= 0 || actual <= 0 {
		return
	}
	r := clampCorrection(actual / est)
	if rec.cardSamples > 0 {
		r = clampCorrection(rec.card + feedbackAlpha*(r-rec.card))
	}
	rec.card = r
	rec.cardSamples++
}

// learnedTable is the table name a record over tabs is keyed by: the
// table's own, or for a join's table set the declaration-order names,
// so repeated joins of the same FROM list share one record whatever
// order they run in.
func learnedTable(tabs []*catalog.Table) string {
	if len(tabs) == 1 {
		return tabs[0].Name
	}
	names := make([]string, len(tabs))
	for i, t := range tabs {
		names[i] = t.Name
	}
	return "join(" + strings.Join(names, ",") + ")"
}

// recordLocked returns the fresh record of index over tabs, creating
// it, or re-deriving it when its stamp has gone stale. o.mu must be
// held.
func (o *Optimizer) recordLocked(index string, tabs ...*catalog.Table) *learned {
	now := catalog.StampOf(tabs...)
	k := learnedKey{learnedTable(tabs), index}
	rec := o.learned[k]
	switch {
	case rec == nil:
		rec = &learned{tabs: make([]*catalog.Table, len(tabs)), stamp: now}
		copy(rec.tabs, tabs)
		o.learned[k] = rec
	case rec.stamp.Stale(now):
		*rec = learned{tabs: rec.tabs, stamp: now}
	}
	return rec
}

// correction returns the learned cardinality correction of index over
// tabs: 1 with feedback off or nothing learned.
func (o *Optimizer) correction(index string, tabs ...*catalog.Table) float64 {
	if !o.cfg.Feedback {
		return 1
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if rec := o.recordLocked(index, tabs...); rec.cardSamples > 0 {
		return rec.card
	}
	return 1
}

// correctionFor curries correction over one table, in the shape
// estimate.Options wants: nil (uncorrected) with feedback off.
func (o *Optimizer) correctionFor(tab *catalog.Table) func(index string) float64 {
	if !o.cfg.Feedback {
		return nil
	}
	return func(index string) float64 { return o.correction(index, tab) }
}

// observeCard folds one estimated-vs-actual cardinality of index over
// tabs into its record. Feedback off learns nothing.
func (o *Optimizer) observeCard(index string, est, actual float64, tabs ...*catalog.Table) {
	if !o.cfg.Feedback {
		return
	}
	o.mu.Lock()
	o.recordLocked(index, tabs...).observe(est, actual)
	o.mu.Unlock()
}

// Correction is one learned correction factor of a snapshot.
type Correction struct {
	Table       string  `json:"table"`
	Index       string  `json:"index,omitempty"`
	Card        float64 `json:"card_factor"`
	CardSamples int64   `json:"card_samples"`
}

// FeedbackSnapshot copies the learned correction factors that still
// hold, sorted by (table, index) so output is deterministic. Nil with
// Config.Feedback off.
func (o *Optimizer) FeedbackSnapshot() []Correction {
	if !o.cfg.Feedback {
		return nil
	}
	out := []Correction{}
	o.mu.Lock()
	for k, rec := range o.learned {
		if rec.cardSamples > 0 && !rec.stamp.Stale(catalog.StampOf(rec.tabs...)) {
			out = append(out, Correction{Table: k.table, Index: k.index, Card: rec.card, CardSamples: rec.cardSamples})
		}
	}
	o.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Index < out[j].Index
	})
	return out
}
