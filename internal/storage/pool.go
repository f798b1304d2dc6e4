package storage

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
)

// BufferPool caches pages in memory with LRU replacement and charges
// IOStats for every miss (a simulated disk read) and every dirty-page
// write-back (a simulated disk write).
//
// The pool is the single chokepoint through which executors touch pages,
// so its counters are the ground truth for retrieval cost. Section 3(c)
// of the paper observes that caching makes per-query cost unpredictable
// because unrelated queries shuffle the cache; the experiments reproduce
// that by sharing one pool between interleaved retrievals.
//
// The pool is sharded for concurrency: pages hash onto N independent
// shards (N a power of two), each with its own mutex, LRU list, and
// frame map, so unrelated page touches from concurrent queries never
// contend. The global Reads/Writes/Hits counters are atomics, so Stats
// never takes a lock.
//
// Sharding and cost fidelity: an unbounded pool behaves identically at
// any shard count (hits and misses depend only on residency, and nothing
// is ever evicted), so unbounded pools shard automatically. A bounded
// pool's per-shard LRU is only an approximation of the global LRU the
// experiments' cost model assumes, so bounded pools default to a single
// shard — exact global LRU — unless the caller opts into sharding with
// NewBufferPoolSharded (as the parallel throughput benchmarks do).
type BufferPool struct {
	disk     *Disk
	capacity int

	reads  atomic.Int64
	writes atomic.Int64
	hits   atomic.Int64
	pinned atomic.Int64

	mask   uint64
	shards []poolShard
}

type poolShard struct {
	mu       sync.Mutex
	capacity int // frame budget of this shard (<= 0 = unbounded)
	frames   map[PageID]*list.Element
	lru      *list.List // front = most recently used
	pins     map[PageID]int
	_        [48]byte // pad to a cache line to avoid false sharing
}

type frame struct {
	page  *Page
	dirty bool
}

// NewBufferPool creates a pool over disk holding at most capacity pages.
// A capacity <= 0 means effectively unbounded (everything stays hot
// after first touch). Unbounded pools are sharded to the number of CPUs;
// bounded pools keep one shard (exact global LRU) — use
// NewBufferPoolSharded to shard a bounded pool.
func NewBufferPool(disk *Disk, capacity int) *BufferPool {
	shards := 1
	if capacity <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return NewBufferPoolSharded(disk, capacity, shards)
}

// NewBufferPoolSharded creates a pool with an explicit shard count. The
// count is rounded up to a power of two, and for bounded pools clamped
// so every shard holds at least one frame; the capacity is split across
// shards. Bounded sharded pools approximate global LRU per shard, which
// can change eviction order versus a single-shard pool of the same
// capacity.
func NewBufferPoolSharded(disk *Disk, capacity, shards int) *BufferPool {
	n := nextPow2(shards)
	if capacity > 0 && n > capacity {
		n = nextPow2(capacity)
		if n > capacity {
			n /= 2
		}
	}
	if n < 1 {
		n = 1
	}
	bp := &BufferPool{
		disk:     disk,
		capacity: capacity,
		mask:     uint64(n - 1),
		shards:   make([]poolShard, n),
	}
	base, rem := 0, 0
	if capacity > 0 {
		base, rem = capacity/n, capacity%n
	}
	for i := range bp.shards {
		s := &bp.shards[i]
		s.capacity = 0
		if capacity > 0 {
			s.capacity = base
			if i < rem {
				s.capacity++
			}
		}
		s.frames = make(map[PageID]*list.Element)
		s.lru = list.New()
		s.pins = make(map[PageID]int)
	}
	return bp
}

func nextPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// shard maps a page ID onto its shard (fibonacci hashing of file+page).
func (bp *BufferPool) shard(id PageID) *poolShard {
	h := (uint64(id.File)<<32 | uint64(id.No)) * 0x9E3779B97F4A7C15
	return &bp.shards[(h>>32)&bp.mask]
}

// Disk returns the underlying disk.
func (bp *BufferPool) Disk() *Disk { return bp.disk }

// Capacity returns the pool's total frame capacity (<= 0 = unbounded).
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Shards returns the number of shards.
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// Stats returns a snapshot of the I/O counters. It is lock-free.
func (bp *BufferPool) Stats() IOStats {
	return IOStats{
		Reads:  bp.reads.Load(),
		Writes: bp.writes.Load(),
		Hits:   bp.hits.Load(),
	}
}

// ResetStats zeroes the I/O counters. Experiments call this between runs.
func (bp *BufferPool) ResetStats() {
	bp.reads.Store(0)
	bp.writes.Store(0)
	bp.hits.Store(0)
}

// Get returns the page with the given ID, charging one read on a miss.
func (bp *BufferPool) Get(id PageID) (*Page, error) { return bp.GetTracked(id, nil) }

// GetTracked is Get, additionally charging the hit/miss (and any
// eviction write-back it triggers) to tr. A nil tracker charges only the
// global counters.
func (bp *BufferPool) GetTracked(id PageID, tr *Tracker) (*Page, error) {
	return bp.get(id, tr, false)
}

// GetDirty is Get plus MarkDirty under one shard-lock acquisition, so a
// concurrent eviction can never slip between the fetch and the mark.
func (bp *BufferPool) GetDirty(id PageID) (*Page, error) { return bp.GetDirtyTracked(id, nil) }

// GetDirtyTracked is GetDirty charging tr.
func (bp *BufferPool) GetDirtyTracked(id PageID, tr *Tracker) (*Page, error) {
	return bp.get(id, tr, true)
}

func (bp *BufferPool) get(id PageID, tr *Tracker, dirty bool) (*Page, error) {
	return bp.getSpan(id, tr, dirty, 1)
}

// GetSpanTracked is GetTracked for a clustered run of span record
// accesses that all land on one page: the first access is charged as a
// normal hit or miss and the remaining span-1 as hits, so the counters
// (global and tracker) end up exactly where span individual GetTracked
// calls would leave them, while paying one lock acquisition and at most
// one disk read. The final retrieval stage uses it to fetch each data
// page once per run of sorted RIDs.
func (bp *BufferPool) GetSpanTracked(id PageID, span int, tr *Tracker) (*Page, error) {
	if span < 1 {
		span = 1
	}
	return bp.getSpan(id, tr, false, span)
}

func (bp *BufferPool) getSpan(id PageID, tr *Tracker, dirty bool, span int) (*Page, error) {
	// Cooperative cancellation checkpoint: every page access — hit or
	// miss — first asks the tracker's governor whether the query may
	// continue. This bounds cancellation latency to one simulated page
	// I/O without sprinkling ctx checks through every operator.
	if err := tr.Err(); err != nil {
		return nil, err
	}
	extra := int64(span - 1)
	s := bp.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.frames[id]; ok {
		bp.hits.Add(1 + extra)
		tr.hit()
		tr.hitN(extra)
		s.lru.MoveToFront(el)
		f := el.Value.(*frame)
		if dirty {
			f.dirty = true
		}
		return f.page, nil
	}
	p, err := bp.disk.read(id)
	if err != nil {
		return nil, err
	}
	bp.reads.Add(1)
	tr.read()
	if extra > 0 {
		bp.hits.Add(extra)
		tr.hitN(extra)
	}
	bp.admit(s, p, dirty, tr)
	return p, nil
}

// ChargeHits records n buffer-pool hits against the global counters and
// tr without touching any page. Batched writers use it to mirror the
// per-record page probes they coalesced (see HeapFile.InsertBatchTracked),
// keeping the counters identical to the unbatched path.
func (bp *BufferPool) ChargeHits(n int, tr *Tracker) {
	if n <= 0 {
		return
	}
	bp.hits.Add(int64(n))
	tr.hitN(int64(n))
}

// NewPage allocates a fresh page in the file and admits it to the pool
// as dirty. Allocation is free; the eventual write-back is charged.
func (bp *BufferPool) NewPage(file FileID) (*Page, error) { return bp.NewPageTracked(file, nil) }

// NewPageTracked is NewPage charging any eviction write-back to tr.
func (bp *BufferPool) NewPageTracked(file FileID, tr *Tracker) (*Page, error) {
	if err := tr.Err(); err != nil {
		return nil, err
	}
	p, err := bp.disk.AllocPage(file)
	if err != nil {
		return nil, err
	}
	s := bp.shard(p.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	bp.admit(s, p, true, tr)
	return p, nil
}

// MarkDirty records that the page has been modified, so its eviction or
// flush will cost one write.
func (bp *BufferPool) MarkDirty(id PageID) {
	s := bp.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.frames[id]; ok {
		el.Value.(*frame).dirty = true
	}
}

// Contains reports whether the page is currently resident. Estimators
// use it to predict whether a fetch would be a hit without paying for
// the fetch.
func (bp *BufferPool) Contains(id PageID) bool {
	s := bp.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.frames[id]
	return ok
}

// FlushAll writes back every dirty page, charging one write apiece, and
// leaves the pages resident and clean.
func (bp *BufferPool) FlushAll() {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			f := el.Value.(*frame)
			if f.dirty {
				bp.writes.Add(1)
				f.dirty = false
			}
		}
		s.mu.Unlock()
	}
}

// EvictAll empties the pool (writing back dirty pages) so the next run
// starts cold. Experiments call this between measured runs.
func (bp *BufferPool) EvictAll() {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			if f := el.Value.(*frame); f.dirty {
				bp.writes.Add(1)
			}
		}
		s.frames = make(map[PageID]*list.Element)
		s.lru.Init()
		s.mu.Unlock()
	}
}

// Resident returns the number of pages currently cached.
func (bp *BufferPool) Resident() int {
	total := 0
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		total += s.lru.Len()
		s.mu.Unlock()
	}
	return total
}

// Pin takes a reference on the page for a cursor that holds it across
// calls. Pins are pure accounting for leak detection: the simulated disk
// keeps every page addressable, so eviction of a pinned page is harmless
// for correctness, and letting pins influence eviction would perturb the
// LRU order (and therefore the simulated I/O counts) the experiments
// depend on. Cancellation tests assert PinnedPages() == 0 after every
// unwound query.
func (bp *BufferPool) Pin(id PageID) {
	s := bp.shard(id)
	s.mu.Lock()
	s.pins[id]++
	s.mu.Unlock()
	bp.pinned.Add(1)
}

// Unpin releases one reference taken by Pin. Unpinning a page that is
// not pinned is a no-op, so release paths can be idempotent.
func (bp *BufferPool) Unpin(id PageID) {
	s := bp.shard(id)
	s.mu.Lock()
	n, ok := s.pins[id]
	if ok {
		if n <= 1 {
			delete(s.pins, id)
		} else {
			s.pins[id] = n - 1
		}
	}
	s.mu.Unlock()
	if ok {
		bp.pinned.Add(-1)
	}
}

// PinnedPages returns the number of outstanding pin references across
// all shards. Zero means no cursor is holding a page.
func (bp *BufferPool) PinnedPages() int64 { return bp.pinned.Load() }

// admit inserts page p into shard s, evicting the shard's LRU victim if
// at capacity. Caller holds s.mu.
func (bp *BufferPool) admit(s *poolShard, p *Page, dirty bool, tr *Tracker) {
	if s.capacity > 0 {
		for s.lru.Len() >= s.capacity {
			victim := s.lru.Back()
			if victim == nil {
				break
			}
			f := victim.Value.(*frame)
			if f.dirty {
				bp.writes.Add(1)
				tr.write()
			}
			delete(s.frames, f.page.ID)
			s.lru.Remove(victim)
		}
	}
	s.frames[p.ID] = s.lru.PushFront(&frame{page: p, dirty: dirty})
}
