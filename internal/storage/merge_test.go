package storage

import (
	"math/rand"
	"testing"
)

// applyCharge replays one recorded charge kind against a tracker using
// the same internal accessors the buffer pool calls.
func applyCharge(tr *Tracker, kind int) {
	switch kind % 3 {
	case 0:
		tr.read()
	case 1:
		tr.write()
	default:
		tr.hit()
	}
}

// TestTrackerMergeQuickcheck is the partitioned-scan attribution
// property: take any sequence of charges (a scan's page accesses),
// partition it arbitrarily across any number of worker trackers, merge
// the workers in any order and any grouping (pairwise MergeStats calls
// form an arbitrary reduction tree), and the result must equal charging
// one tracker sequentially. This is what lets core/parallel.go hand each
// morsel worker its own tracker and still report exact per-query
// attributed I/O at each hand-over.
func TestTrackerMergeQuickcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 500; iter++ {
		nops := 1 + rng.Intn(300)
		charges := make([]int, nops)
		seq := NewTracker(nil)
		for i := range charges {
			charges[i] = rng.Intn(3)
			applyCharge(seq, charges[i])
		}
		want := seq.Stats()

		// Partition the sequence into 1..8 contiguous worker shares
		// (contiguous mirrors the executor's range partitioning, but any
		// assignment works — counters are order-free sums).
		k := 1 + rng.Intn(8)
		workers := make([]*Tracker, k)
		for i := range workers {
			workers[i] = NewTracker(nil)
		}
		if rng.Intn(2) == 0 {
			// Contiguous chunks.
			for i, c := range charges {
				applyCharge(workers[i*k/nops], c)
			}
		} else {
			// Arbitrary assignment.
			for _, c := range charges {
				applyCharge(workers[rng.Intn(k)], c)
			}
		}

		// Merge with a random reduction tree: repeatedly fold a random
		// tracker into another random one until a single root remains.
		pool := append([]*Tracker(nil), workers...)
		for len(pool) > 1 {
			i := rng.Intn(len(pool))
			j := rng.Intn(len(pool) - 1)
			if j >= i {
				j++
			}
			pool[i].MergeStats(pool[j].Stats())
			pool = append(pool[:j], pool[j+1:]...)
		}
		got := pool[0].Stats()

		if got != want {
			t.Fatalf("iter %d: merged %+v, sequential %+v (k=%d, n=%d)", iter, got, want, k, nops)
		}
		if got.IOCost() != want.IOCost() {
			t.Fatalf("iter %d: merged cost %d, sequential %d", iter, got.IOCost(), want.IOCost())
		}
	}
}

// TestTrackerMergeDoesNotChargeGovernor: workers share the query's
// governor and charge it live at access time, so the hand-over merge
// must fold counters only — re-charging would double-bill the budget.
func TestTrackerMergeDoesNotChargeGovernor(t *testing.T) {
	gov := NewGovernor(nil, 100)
	parent := NewTracker(gov)
	worker := NewTracker(gov)
	worker.read()
	worker.write()
	if spent := gov.Spent(); spent != 2 {
		t.Fatalf("worker charges: governor spent %d, want 2", spent)
	}
	parent.MergeStats(worker.Stats())
	if spent := gov.Spent(); spent != 2 {
		t.Fatalf("merge re-charged the governor: spent %d, want 2", spent)
	}
	if got := parent.Stats(); got != (IOStats{Reads: 1, Writes: 1}) {
		t.Fatalf("parent stats %+v after merge", got)
	}
	// Nil-safety mirrors the rest of the Tracker API.
	var nilT *Tracker
	nilT.MergeStats(worker.Stats())
	parent.MergeStats(nilT.Stats())
	if got := parent.Stats(); got != (IOStats{Reads: 1, Writes: 1}) {
		t.Fatalf("nil merges changed stats: %+v", got)
	}
}
