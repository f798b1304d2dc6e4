package engine

import (
	"sort"
	"strings"
	"sync"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/core"
)

// PlanCacheConfig tunes the engine's frozen-plan cache. The cache is
// the inverse of the paper's critique of static optimizers: a plan is
// only frozen AFTER the dynamic optimizer has picked the same strategy
// for the same statement shape several runs in a row, and it is thawed
// again the moment the replayed plan's observed I/O drifts away from
// the dynamic baseline or the table underneath it changes. Disabled by
// default; the experiment suite runs with it off.
type PlanCacheConfig struct {
	// Enable turns the cache on.
	Enable bool
}

const (
	// promoteAfter is how many consecutive dynamic runs must choose the
	// identical plan before the shape is frozen.
	promoteAfter = 3
	// driftFactor demotes a frozen plan when a replay's attributed I/O
	// exceeds driftFactor × the I/O of the dynamic run that promoted it.
	driftFactor = 2
	// maxShapes bounds the number of tracked shapes.
	maxShapes = 256
)

// cacheEntry tracks one statement shape. plan is nil until the shape
// earns promotion.
type cacheEntry struct {
	key    string
	lastFP string // fingerprint of the last dynamic run's captured plan
	streak int    // consecutive dynamic runs with that fingerprint
	plan   *core.Plan

	// Promotion-time state, for invalidation and drift detection.
	baselineIO int64         // attributed I/O of the promoting run
	stamp      catalog.Stamp // table state at promotion
}

// planCache is the shape-keyed frozen-plan cache. All methods are safe
// for concurrent use.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits          int64
	misses        int64
	promotions    int64
	demotions     int64
	invalidations int64
}

func newPlanCache() *planCache {
	return &planCache{entries: map[string]*cacheEntry{}}
}

// lookup returns the frozen plan for key, or nil on miss. A hit is
// revalidated against the table first: a schema change or stats drift
// demotes the entry back to dynamic execution on the spot.
func (c *planCache) lookup(key string, tab *catalog.Table) *core.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.plan == nil {
		c.misses++
		return nil
	}
	if e.stamp.Stale(catalog.StampOf(tab)) {
		e.plan, e.streak, e.lastFP = nil, 0, ""
		c.invalidations++
		c.misses++
		return nil
	}
	c.hits++
	return e.plan
}

// observeDynamic folds one completed dynamic run into the promotion
// bookkeeping. Only drained, error-free runs count: a run closed early
// says nothing about the plan, and CapturePlan itself rejects runs
// whose competition events are not exactly replayable.
func (c *planCache) observeDynamic(key string, tab *catalog.Table, st *core.RetrievalStats, drained bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if err != nil {
		if e != nil {
			e.streak, e.lastFP = 0, ""
		}
		return
	}
	if !drained {
		return
	}
	plan, ok := core.CapturePlan(st)
	if !ok {
		if e != nil {
			e.streak, e.lastFP = 0, ""
		}
		return
	}
	if e == nil {
		if len(c.entries) >= maxShapes {
			c.evictLocked()
		}
		e = &cacheEntry{key: key}
		c.entries[key] = e
	}
	if fp := plan.String(); fp == e.lastFP {
		e.streak++
	} else {
		e.streak, e.lastFP = 1, fp
	}
	if e.plan == nil && e.streak >= promoteAfter {
		e.plan = plan
		e.baselineIO = st.IO.IOCost()
		e.stamp = catalog.StampOf(tab)
		c.promotions++
	}
}

// observeFrozen checks one completed replay for drift. A replay whose
// attributed I/O exceeds driftFactor × the promotion baseline (floored
// at 4 I/Os so tiny plans aren't demoted by one pool miss), or that
// failed outright, demotes the entry: the shape re-enters dynamic
// competition and must re-earn its freeze.
func (c *planCache) observeFrozen(key string, st *core.RetrievalStats, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.plan == nil {
		return
	}
	base := e.baselineIO
	if base < 4 {
		base = 4
	}
	if err != nil || float64(st.IO.IOCost()) > driftFactor*float64(base) {
		e.plan, e.streak, e.lastFP = nil, 0, ""
		c.demotions++
	}
}

// invalidateTable drops every entry whose shape references the table
// (shape keys are table-prefixed). Called on DDL like DropIndex.
func (c *planCache) invalidateTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prefix := table + "|"
	for k, e := range c.entries {
		if strings.HasPrefix(k, prefix) {
			if e.plan != nil {
				c.invalidations++
			}
			delete(c.entries, k)
		}
	}
}

// evictLocked makes room for one new entry, preferring shapes that
// never earned a frozen plan. Map iteration order makes the victim
// arbitrary, which is fine: an evicted shape just re-earns its streak.
func (c *planCache) evictLocked() {
	var victim string
	for k, e := range c.entries {
		victim = k
		if e.plan == nil {
			break
		}
	}
	if victim != "" {
		delete(c.entries, victim)
	}
}

// PlanCacheEntry describes one cached shape in a snapshot.
type PlanCacheEntry struct {
	Shape      string `json:"shape"`
	Plan       string `json:"plan,omitempty"` // empty until promoted
	Streak     int    `json:"streak"`
	BaselineIO int64  `json:"baseline_io,omitempty"`
}

// PlanCacheSnapshot is a point-in-time view of the cache for rdbsh's
// \cache and the bench reports.
type PlanCacheSnapshot struct {
	Enabled       bool             `json:"enabled"`
	Entries       int              `json:"entries"`
	Frozen        int              `json:"frozen"`
	Hits          int64            `json:"hits"`
	Misses        int64            `json:"misses"`
	Promotions    int64            `json:"promotions"`
	Demotions     int64            `json:"demotions"`
	Invalidations int64            `json:"invalidations"`
	Plans         []PlanCacheEntry `json:"plans,omitempty"`
}

func (c *planCache) snapshot() PlanCacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := PlanCacheSnapshot{
		Enabled:       true,
		Entries:       len(c.entries),
		Hits:          c.hits,
		Misses:        c.misses,
		Promotions:    c.promotions,
		Demotions:     c.demotions,
		Invalidations: c.invalidations,
	}
	for _, e := range c.entries {
		pe := PlanCacheEntry{Shape: e.key, Streak: e.streak}
		if e.plan != nil {
			pe.Plan = e.plan.String()
			pe.BaselineIO = e.baselineIO
			s.Frozen++
		}
		s.Plans = append(s.Plans, pe)
	}
	sort.Slice(s.Plans, func(i, j int) bool { return s.Plans[i].Shape < s.Plans[j].Shape })
	return s
}
