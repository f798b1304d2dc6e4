package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// stressDisk allocates a file with n pages and returns their IDs.
func stressDisk(t *testing.T, n int) (*Disk, []PageID) {
	t.Helper()
	disk := NewDisk(0)
	f := disk.CreateFile()
	ids := make([]PageID, n)
	for i := range ids {
		p, err := disk.AllocPage(f)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = p.ID
	}
	return disk, ids
}

// TestShardedPoolParallelStress hammers a bounded pool — one shard, as
// every bounded pool is — from many goroutines (Get, GetDirty,
// MarkDirty, and concurrent EvictAll) and checks the global accounting
// invariants afterwards:
//
//   - every Get is either a read (miss) or a hit: Reads+Hits == Gets;
//   - a dirty residency writes back at most once, so Writes never
//     exceeds the number of dirtying operations;
//   - the clean phase performs no writes at all.
//
// Run with -race to exercise the locking.
func TestShardedPoolParallelStress(t *testing.T) {
	const (
		pages      = 256
		workers    = 8
		iterations = 2000
	)
	disk, ids := stressDisk(t, pages)
	bp := NewBufferPool(disk, 64)

	var gets, dirties atomic.Int64

	// Phase 1: clean reads only.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iterations; i++ {
				id := ids[rng.Intn(pages)]
				if _, err := bp.Get(id); err != nil {
					t.Error(err)
					return
				}
				gets.Add(1)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	st := bp.Stats()
	if st.Reads+st.Hits != gets.Load() {
		t.Fatalf("clean phase: Reads(%d)+Hits(%d) != Gets(%d)", st.Reads, st.Hits, gets.Load())
	}
	if st.Writes != 0 {
		t.Fatalf("clean phase: %d writes without any dirtying op", st.Writes)
	}

	// Phase 2: mixed dirtying traffic with concurrent wholesale eviction.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			tr := new(Tracker)
			for i := 0; i < iterations; i++ {
				id := ids[rng.Intn(pages)]
				switch rng.Intn(4) {
				case 0:
					if _, err := bp.GetDirtyTracked(id, tr); err != nil {
						t.Error(err)
						return
					}
					gets.Add(1)
					dirties.Add(1)
				case 1:
					if _, err := bp.Get(id); err != nil {
						t.Error(err)
						return
					}
					gets.Add(1)
					if bp.Contains(id) {
						// MarkDirty on a possibly-evicted page: a no-op
						// miss is fine, the op only counts if resident.
						bp.MarkDirty(id)
						dirties.Add(1)
					}
				case 2:
					if _, err := bp.Get(id); err != nil {
						t.Error(err)
						return
					}
					gets.Add(1)
				default:
					if i%500 == 0 {
						bp.EvictAll()
					} else {
						if _, err := bp.Get(id); err != nil {
							t.Error(err)
							return
						}
						gets.Add(1)
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	bp.EvictAll()

	st = bp.Stats()
	if st.Reads+st.Hits != gets.Load() {
		t.Fatalf("mixed phase: Reads(%d)+Hits(%d) != Gets(%d)", st.Reads, st.Hits, gets.Load())
	}
	if st.Writes > dirties.Load() {
		t.Fatalf("write-back imbalance: %d writes > %d dirtying ops", st.Writes, dirties.Load())
	}
	if st.Writes == 0 {
		t.Fatalf("expected some write-backs after %d dirtying ops", dirties.Load())
	}
	if bp.Resident() != 0 {
		t.Fatalf("EvictAll left %d resident frames", bp.Resident())
	}
}

// TestShardedUnboundedMatchesUnsharded verifies the cost-fidelity claim
// for unbounded pools: an identical access sequence yields identical
// global statistics whether the pool has one shard or many (no eviction
// can ever occur, so sharding is observationally equivalent).
func TestShardedUnboundedMatchesUnsharded(t *testing.T) {
	const pages = 128
	run := func(bp *BufferPool, ids []PageID) IOStats {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			id := ids[rng.Intn(pages)]
			if rng.Intn(10) == 0 {
				if _, err := bp.GetDirty(id); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := bp.Get(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		bp.EvictAll()
		return bp.Stats()
	}
	diskA, idsA := stressDisk(t, pages)
	diskB, idsB := stressDisk(t, pages)
	a := run(NewBufferPool(diskA, 0), idsA)
	b := run(newBufferPool(diskB, 0, 8), idsB)
	if a != b {
		t.Fatalf("unbounded stats diverge: unsharded %+v, sharded %+v", a, b)
	}
}

// TestPoolShardCount pins the shard rule: a bounded pool has exactly one
// shard, so its LRU is the global LRU the cost model assumes, and an
// unbounded pool has at least one.
func TestPoolShardCount(t *testing.T) {
	if n := len(NewBufferPool(NewDisk(0), 64).shards); n != 1 {
		t.Fatalf("bounded pool has %d shards, want 1", n)
	}
	if n := len(NewBufferPool(NewDisk(0), 0).shards); n < 1 {
		t.Fatalf("unbounded pool has %d shards, want >= 1", n)
	}
}

// TestTrackerMatchesGlobalDelta pins the attribution contract: when a
// single actor drives the pool, a private tracker observes exactly the
// same delta as global-snapshot differencing used to.
func TestTrackerMatchesGlobalDelta(t *testing.T) {
	const pages = 64
	disk, ids := stressDisk(t, pages)
	bp := NewBufferPool(disk, 16)
	tr := new(Tracker)
	before := bp.Stats()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		id := ids[rng.Intn(pages)]
		if rng.Intn(5) == 0 {
			if _, err := bp.GetDirtyTracked(id, tr); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := bp.GetTracked(id, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	delta := bp.Stats().Sub(before)
	if delta != tr.Stats() {
		t.Fatalf("tracker %+v != global delta %+v", tr.Stats(), delta)
	}
}
