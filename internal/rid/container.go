package rid

import (
	"slices"

	"rdbdyn/internal/storage"
)

// Config sizes the hybrid container's regions. The zero value selects
// the paper's defaults.
type Config struct {
	// SmallCap is the statically-allocated region ("lists up to 20
	// RIDs are stored in a small statically-allocated buffer").
	SmallCap int
	// MemBudget is the maximum number of RIDs held in the allocated
	// in-memory buffer before spilling to a temporary table.
	MemBudget int
	// FilterOnly marks containers whose only useful outcome is a
	// membership filter (the sorted tactic's Jscan): instead of
	// spilling overflow RIDs to a temporary table, the container keeps
	// just the bitmap. All() is then unavailable.
	FilterOnly bool
}

// DefaultConfig mirrors the constants from the paper's Section 6.
func DefaultConfig() Config { return Config{SmallCap: 20, MemBudget: 4096} }

func (c Config) withDefaults() Config {
	if c.SmallCap <= 0 {
		c.SmallCap = 20
	}
	if c.MemBudget < c.SmallCap {
		c.MemBudget = c.SmallCap * 200
	}
	return c
}

// Container is the hybrid RID list of Section 6. RIDs are appended in
// scan order; the container transparently graduates from a static
// buffer to an allocated buffer to a temporary table with a bitmap.
type Container struct {
	cfg  Config
	pool *storage.BufferPool
	tr   *storage.Tracker // charged for spill and read-back I/O

	small     [20]storage.RID   // static region (cfg.SmallCap <= 20 uses a prefix)
	mem       []storage.RID     // allocated region; nil while in static region
	n         int               // total appended
	allocated bool              // entered the allocated region
	spill     *tempTable        // non-nil once spilled
	bitmap    *CompressedBitmap // maintained once overflowed; exact
	sorted    sortedKeys        // the in-memory list's filter (Filter)
	discarded bool
}

// NewContainer creates an empty hybrid container drawing temp-table
// pages from pool.
func NewContainer(pool *storage.BufferPool, cfg Config) *Container {
	return NewContainerTracked(pool, cfg, nil)
}

// NewContainerTracked is NewContainer charging spill writes and
// read-back page I/O to tr, so a scan's temp-table traffic is
// attributed to the scan that owns the container.
func NewContainerTracked(pool *storage.BufferPool, cfg Config, tr *storage.Tracker) *Container {
	cfg = cfg.withDefaults()
	if cfg.SmallCap > len((&Container{}).small) {
		cfg.SmallCap = len((&Container{}).small)
	}
	return &Container{cfg: cfg, pool: pool, tr: tr}
}

// Len returns the number of RIDs appended.
func (c *Container) Len() int { return c.n }

// Allocated reports whether the container outgrew the static region.
func (c *Container) Allocated() bool { return c.allocated }

// Spilled reports whether the container overflowed to a temp table.
func (c *Container) Spilled() bool { return c.spill != nil }

// Append adds a RID.
func (c *Container) Append(r storage.RID) error {
	if c.discarded {
		return ErrDiscarded
	}
	switch {
	case c.spill != nil:
		c.bitmap.Add(r)
		if err := c.spill.append(r); err != nil {
			return err
		}
	case !c.allocated && c.n < c.cfg.SmallCap:
		c.small[c.n] = r
	case c.n < c.cfg.MemBudget:
		if !c.allocated {
			c.graduate()
		}
		c.mem = append(c.mem, r)
	case c.bitmap != nil:
		// Filter-only overflow mode: the bitmap is the only record.
		c.bitmap.Add(r)
	default:
		if err := c.overflow(r); err != nil {
			return err
		}
	}
	c.n++
	return nil
}

// AppendBatch adds a run of RIDs in order. It is equivalent to calling
// Append for each — including mid-batch region graduations and the I/O
// charged for spill pages — but batches the region copies, the bitmap
// feeds, and the temp-table page probes.
func (c *Container) AppendBatch(rids []storage.RID) error {
	if c.discarded {
		return ErrDiscarded
	}
	for len(rids) > 0 {
		switch {
		case c.spill != nil:
			for _, r := range rids {
				c.bitmap.Add(r)
			}
			k, err := c.spill.appendBatch(rids)
			c.n += k
			return err
		case c.bitmap != nil:
			for _, r := range rids {
				c.bitmap.Add(r)
			}
			c.n += len(rids)
			return nil
		case !c.allocated && c.n < c.cfg.SmallCap:
			k := c.cfg.SmallCap - c.n
			if k > len(rids) {
				k = len(rids)
			}
			copy(c.small[c.n:], rids[:k])
			c.n += k
			rids = rids[k:]
		case c.n < c.cfg.MemBudget:
			if !c.allocated {
				c.graduate()
			}
			k := c.cfg.MemBudget - c.n
			if k > len(rids) {
				k = len(rids)
			}
			c.mem = append(c.mem, rids[:k]...)
			c.n += k
			rids = rids[k:]
		default:
			// Cross the overflow boundary one RID at a time; the next
			// loop iteration lands in the spill or bitmap fast path.
			if err := c.Append(rids[0]); err != nil {
				return err
			}
			rids = rids[1:]
		}
	}
	return nil
}

// graduate moves the container from the static to the allocated region.
func (c *Container) graduate() {
	capHint := c.cfg.MemBudget
	if capHint > 4*c.cfg.SmallCap {
		capHint = 4 * c.cfg.SmallCap // grow geometrically from here
	}
	c.mem = make([]storage.RID, 0, capHint)
	c.mem = append(c.mem, c.small[:c.n]...)
	c.allocated = true
}

// overflow graduates past the memory budget: the bitmap is built from
// the in-memory RIDs, which stay in memory. In filter-only mode the bitmap
// alone absorbs the overflow; otherwise the overflow also goes to a
// temporary table so the list can be read back. The bitmap is exact, so
// even a filter-only container's answers carry no false positives.
func (c *Container) overflow(r storage.RID) error {
	c.bitmap = FromRIDs(c.inMemory())
	c.bitmap.Add(r)
	if !c.cfg.FilterOnly {
		c.spill = newTempTable(c.pool, c.tr)
		if err := c.spill.append(r); err != nil {
			return err
		}
	}
	return nil
}

// inMemory returns the in-memory portion of the list. Once the
// container overflows (to a temp table or a filter-only bitmap), n
// keeps counting while the in-memory region stays frozen, so the count
// is capped at the static region's fill.
func (c *Container) inMemory() []storage.RID {
	if c.allocated {
		return c.mem
	}
	k := c.n
	if k > c.cfg.SmallCap {
		k = c.cfg.SmallCap
	}
	return c.small[:k]
}

// Filter returns the exact membership filter for this container. A
// list that stayed within its memory budget is its own filter: its keys,
// copied once, sorted and deduplicated (Section 6's sorted buffer; one
// allocation). The filter is held by the container and each call
// rebuilds it from the list as it stands, so take it once the list is
// complete; Discard leaves it intact. An overflowed list filters through
// its maintained bitmap — the modern replacement for the paper's "hashed
// in-memory bitmap for temporary tables", which traded false positives
// for space.
func (c *Container) Filter() Filter {
	if c.bitmap != nil {
		return c.bitmap
	}
	c.sorted.keys = keysOf(c.inMemory())
	return &c.sorted
}

// All returns every RID in append order. Reading back a spilled
// container charges page I/O for the temp-table pages.
func (c *Container) All() ([]storage.RID, error) {
	if c.discarded {
		return nil, ErrDiscarded
	}
	if c.bitmap != nil && c.spill == nil && c.n > len(c.inMemory()) {
		return nil, ErrFilterOnly
	}
	out := make([]storage.RID, 0, c.n)
	out = append(out, c.inMemory()...)
	if c.spill != nil {
		err := c.spill.readAll(func(r storage.RID) error {
			out = append(out, r)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SortedAll returns every RID in (file, page, slot) order, the order
// the final retrieval stage fetches in so that each data page is read
// once.
func (c *Container) SortedAll() ([]storage.RID, error) {
	out, err := c.All()
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, storage.RID.Compare)
	return out, nil
}

// Discard abandons the container, dropping any temp table. The paper's
// two-stage competition discards incomplete RID lists of non-competitive
// indexes.
func (c *Container) Discard() {
	if c.spill != nil {
		c.spill.drop()
		c.spill = nil
	}
	c.mem = nil
	c.bitmap = nil
	c.n = 0
	c.discarded = true
}

// MemRIDs returns how many RIDs are held in memory (static + allocated
// regions). Spilled RIDs are excluded.
func (c *Container) MemRIDs() int { return len(c.inMemory()) }
