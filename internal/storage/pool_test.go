package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refPool is the reference LRU pool: the charging rules the buffer pool
// had when each shard kept a container/list of heap-allocated frames,
// restated over a recency-ordered slice of page IDs. It has one global
// LRU, which is what a bounded pool's single shard must be, and charges
// trackers by index (-1 is the nil tracker).
type refPool struct {
	capacity int
	lru      []PageID // lru[0] is the most recently used
	dirty    map[PageID]bool
	stats    IOStats
	charged  []IOStats
}

func (r *refPool) charge(tr int, d IOStats) {
	r.stats = r.stats.Add(d)
	if tr >= 0 {
		r.charged[tr] = r.charged[tr].Add(d)
	}
}

func (r *refPool) resident(id PageID) bool { return slices.Contains(r.lru, id) }

func (r *refPool) get(id PageID, tr int, dirty bool, span int) {
	if i := slices.Index(r.lru, id); i >= 0 {
		r.charge(tr, IOStats{Hits: int64(span)})
		r.lru = slices.Insert(slices.Delete(r.lru, i, i+1), 0, id)
		r.dirty[id] = r.dirty[id] || dirty
		return
	}
	r.charge(tr, IOStats{Reads: 1, Hits: int64(span - 1)})
	r.admit(id, dirty, tr)
}

func (r *refPool) admit(id PageID, dirty bool, tr int) {
	for r.capacity > 0 && len(r.lru) >= r.capacity {
		victim := r.lru[len(r.lru)-1]
		if r.dirty[victim] {
			r.charge(tr, IOStats{Writes: 1})
		}
		delete(r.dirty, victim)
		r.lru = r.lru[:len(r.lru)-1]
	}
	r.lru = slices.Insert(r.lru, 0, id)
	r.dirty[id] = dirty
}

func (r *refPool) markDirty(id PageID) {
	if r.resident(id) {
		r.dirty[id] = true
	}
}

// writeBack charges one write per dirty page and cleans them all.
func (r *refPool) writeBack() {
	for id, d := range r.dirty {
		if d {
			r.stats.Writes++
			r.dirty[id] = false
		}
	}
}

func (r *refPool) evictAll() {
	r.writeBack()
	r.lru = r.lru[:0]
	clear(r.dirty)
}

// TestPoolMatchesLRUModel drives the buffer pool and the reference LRU
// with one seeded random sequence of every page-touching operation and,
// after each, requires the same global counters, the same charges on
// every tracker, the same resident count and the same residency of
// every page: eviction order, the dirty-on-hit rule, the tracker
// charged with a write-back, the span's hit/miss split and NewPage's
// dirty admission all show up in those.
func TestPoolMatchesLRUModel(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{{1, 1}, {2, 1}, {7, 1}, {64, 1}, {0, 4}} {
		t.Run(fmt.Sprintf("cap%d", tc.capacity), func(t *testing.T) {
			disk := NewDisk(0)
			files := []FileID{disk.CreateFile(), disk.CreateFile()}
			var ids []PageID
			for _, f := range files {
				for i := 0; i < 50; i++ {
					p, err := disk.AllocPage(f)
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, p.ID)
				}
			}
			bp := newBufferPool(disk, tc.capacity, tc.shards)
			trackers := []*Tracker{new(Tracker), new(Tracker), new(Tracker)}
			ref := &refPool{capacity: tc.capacity, dirty: map[PageID]bool{}, charged: make([]IOStats, len(trackers))}
			rng := rand.New(rand.NewSource(1))
			// pick favors a hot fifth of the pages so small and large
			// pools both see hits, misses and evictions.
			pick := func() PageID {
				if rng.Intn(2) == 0 {
					return ids[rng.Intn(len(ids)/5)]
				}
				return ids[rng.Intn(len(ids))]
			}
			for step := 0; step < 4000; step++ {
				ti := rng.Intn(len(trackers)+1) - 1
				var tr *Tracker
				if ti >= 0 {
					tr = trackers[ti]
				}
				var op string
				var err error
				switch k := rng.Intn(100); {
				case k < 30:
					id := pick()
					op = fmt.Sprintf("GetTracked(%v)", id)
					_, err = bp.GetTracked(id, tr)
					ref.get(id, ti, false, 1)
				case k < 45:
					id := pick()
					op = fmt.Sprintf("GetDirtyTracked(%v)", id)
					_, err = bp.GetDirtyTracked(id, tr)
					ref.get(id, ti, true, 1)
				case k < 60:
					id, span := pick(), 2+rng.Intn(6)
					op = fmt.Sprintf("GetSpanTracked(%v, %d)", id, span)
					_, err = bp.GetSpanTracked(id, span, tr)
					ref.get(id, ti, false, span)
				case k < 65:
					var p *Page
					p, err = bp.NewPageTracked(files[rng.Intn(len(files))], tr)
					if err == nil {
						op = fmt.Sprintf("NewPageTracked() = %v", p.ID)
						ids = append(ids, p.ID)
						ref.admit(p.ID, true, ti)
					}
				case k < 80:
					id := pick()
					op = fmt.Sprintf("MarkDirty(%v)", id)
					bp.MarkDirty(id)
					ref.markDirty(id)
				case k < 95:
					id := pick()
					op = fmt.Sprintf("Contains(%v)", id)
					if got, want := bp.Contains(id), ref.resident(id); got != want {
						t.Fatalf("step %d: %s = %v, reference %v", step, op, got, want)
					}
				case k < 98:
					op = "FlushAll()"
					bp.FlushAll()
					ref.writeBack()
				default:
					op = "EvictAll()"
					bp.EvictAll()
					ref.evictAll()
				}
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, op, err)
				}
				if got := bp.Stats(); got != ref.stats {
					t.Fatalf("step %d: after %s pool counters %v, reference %v", step, op, got, ref.stats)
				}
				for i, tr := range trackers {
					if got := tr.Stats(); got != ref.charged[i] {
						t.Fatalf("step %d: after %s tracker %d charged %v, reference %v", step, op, i, got, ref.charged[i])
					}
				}
				if got, want := bp.Resident(), len(ref.lru); got != want {
					t.Fatalf("step %d: after %s %d resident, reference %d", step, op, got, want)
				}
				for _, id := range ids {
					if got, want := bp.Contains(id), ref.resident(id); got != want {
						t.Fatalf("step %d: after %s page %v resident %v, reference %v", step, op, id, got, want)
					}
				}
			}
			if s := bp.Stats(); s.Reads == 0 || s.Writes == 0 || s.Hits == 0 {
				t.Fatalf("the sequence never exercised every counter: %v", s)
			}
		})
	}
}

// TestAllocsPoolMiss: once warm, a hit allocates nothing, and neither
// does a miss on a full bounded pool, which takes over its victim's
// frame.
func TestAllocsPoolMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	disk, ids := stressDisk(t, 256)
	bp := NewBufferPool(disk, 64)
	tr := new(Tracker)
	i := 0
	// Cycling through 256 pages on 64 frames misses on every access and
	// evicts, dirty victims included; two full passes warm the map.
	miss := func() {
		if _, err := bp.GetDirtyTracked(ids[i%len(ids)], tr); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for j := 0; j < 2*len(ids); j++ {
		miss()
	}
	before := bp.Stats()
	if allocs := testing.AllocsPerRun(1000, miss); allocs != 0 {
		t.Errorf("a miss that evicts: %v allocations, want 0", allocs)
	}
	if d := bp.Stats().Sub(before); d.Hits != 0 || d.Reads == 0 || d.Writes == 0 {
		t.Fatalf("the measured accesses were not all evicting misses: %v", d)
	}
	hot := ids[(i-1)%len(ids)]
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := bp.GetTracked(hot, tr); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a hit: %v allocations, want 0", allocs)
	}
}
