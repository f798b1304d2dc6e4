package core

import (
	"errors"
	"sync/atomic"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/rid"
	"rdbdyn/internal/storage"
)

// finalFetchBudget is the per-step record-access budget of the final
// stage, matching the other fetching steppers ("roughly one page worth
// of work" per step).
const finalFetchBudget = 4

// finalStage is Fin: retrieval by a complete RID list, executed only
// upon background completion as the alternative to foreground delivery.
// RIDs are fetched in sorted order and grouped by page, so "several
// records on a single page [are accessed] only once, not multiple times
// as in the case of random fetches" — each same-page run costs one
// buffer-pool round trip charged as len(run) record accesses, leaving
// the simulated counters identical to per-record fetching. The full
// restriction is re-evaluated (this absorbs non-indexed conjuncts), and
// records already delivered by the foreground are filtered out through
// an exact compressed bitmap of its RID buffer.
type finalStage struct {
	meter
	q       *Query
	k       *rowKernel
	c       fetchCursor           // the stepping path's position over the whole list
	exclude *rid.CompressedBitmap // foreground-delivered RIDs; may be nil
	out     *rowQueue

	workers int      // intra-query worker budget (see parallel.go)
	par     *morsels // the streamed fetch, once partitioned
	done    bool
}

// fetchCursor is one consumer's position in a slice of the sorted RID
// list, with the scratch the fetch kernel needs: the stepping path owns
// one over the whole list, each partition worker one over its chunk.
type fetchCursor struct {
	rids    []storage.RID
	pos     int
	run     []storage.RID // same-page run scratch
	scratch expr.Row      // the row kernel's scratch for this consumer
}

func newFetchCursor(rids []storage.RID) fetchCursor {
	return fetchCursor{rids: rids, run: make([]storage.RID, 0, finalFetchBudget)}
}

func newFinalStage(ec *ExecCtx, q *Query, k *rowKernel, c *rid.Container, delivered []storage.RID, out *rowQueue) (*finalStage, error) {
	if c == nil {
		return nil, errors.New("core: final stage without a RID list")
	}
	rids, err := c.SortedAll()
	if err != nil {
		return nil, err
	}
	f := &finalStage{
		q: q,
		k: k,
		// Union scans may deliver the same RID through several legs; the
		// sorted order makes duplicates adjacent.
		c:     newFetchCursor(dedupSorted(rids)),
		out:   out,
		meter: newMeter(ec),
	}
	if len(delivered) > 0 {
		f.exclude = rid.FromRIDs(delivered)
	}
	return f, nil
}

func (f *finalStage) name() string { return "Fin" }
func (f *finalStage) release()     { f.par.close() } // a streamed fetch's workers; the RID slice holds no cursor

func (f *finalStage) step() (bool, error) {
	if f.done {
		return true, nil
	}
	// Partitioned fetch: only without a row limit (workers run ahead of
	// the consumer) and only from a fresh position; every step hands
	// over one morsel.
	if f.par == nil && f.workers > 1 && f.q.Limit == 0 && f.c.pos == 0 {
		f.par = f.startParallelFetch()
	}
	var err error
	if f.par != nil {
		f.done, err = f.par.step(f.out)
	} else {
		f.done, err = f.fetch(&f.c, f.tr, finalFetchBudget, nil, f.out)
	}
	return f.done, err
}

// fetch is the final-fetch loop: same-page runs of c's non-excluded
// RIDs, each span-fetched once and handed record by record to the row
// kernel (the full restriction is re-checked), delivered in RID order.
// The stepping path runs it with its record-access budget, which also
// caps the run (a run split across steps costs the same: the page is
// resident, so the re-fetch is a hit — exactly the hit per-record
// fetching would charge); partition workers run it unbounded (budget
// 0) over their chunk, polling stop. done reports that c is exhausted.
func (f *finalStage) fetch(c *fetchCursor, tr *storage.Tracker, budget int, stop *atomic.Bool, out *rowQueue) (done bool, _ error) {
	for fetches := 0; (budget == 0 || fetches < budget) && !stopped(stop); {
		run := c.run[:0]
		var page storage.PageID
		for c.pos < len(c.rids) && (budget == 0 || len(run) < budget-fetches) {
			r := c.rids[c.pos]
			if f.exclude != nil && f.exclude.MayContain(r) {
				c.pos++
				continue
			}
			if len(run) > 0 && r.Page != page {
				break
			}
			page = r.Page
			run = append(run, r)
			c.pos++
		}
		if len(run) == 0 {
			return true, nil
		}
		c.run = run
		p, err := f.q.Table.Heap.GetSpanTracked(page, len(run), tr)
		if err != nil {
			return false, err
		}
		for _, r := range run {
			rec, err := p.Get(r.Slot)
			if err != nil {
				return false, err
			}
			if _, err := f.k.deliver(r, rec, &c.scratch, out); err != nil {
				return false, err
			}
		}
		fetches += len(run)
	}
	return false, nil
}
