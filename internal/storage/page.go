package storage

import "slices"

// Page is a slotted page holding variable-length records. Records are
// addressed by slot number; deleting a record leaves a tombstone so that
// RIDs of other records remain stable.
//
// A Page tracks its used byte budget: each record costs its length plus
// slotOverhead bytes. The page never reclaims tombstone slots (as in a
// real slotted page without compaction), which keeps RIDs stable for the
// lifetime of the simulation.
type Page struct {
	ID    PageID
	slots [][]byte // nil entry = tombstone
	used  int      // bytes consumed, including slot overhead
	size  int      // byte budget
}

// NewPage returns an empty page with the given byte budget.
func NewPage(id PageID, size int) *Page {
	if size <= 0 {
		size = DefaultPageSize
	}
	return &Page{ID: id, size: size}
}

// Size returns the page's byte budget.
func (p *Page) Size() int { return p.size }

// Free returns the remaining byte budget.
func (p *Page) Free() int { return p.size - p.used }

// NumSlots returns the number of slots ever allocated, including
// tombstones. Valid slot numbers are [0, NumSlots).
func (p *Page) NumSlots() int { return len(p.slots) }

// Fits reports whether a record of n bytes can be inserted.
func (p *Page) Fits(n int) bool { return n+slotOverhead <= p.Free() }

// Insert stores rec in a fresh slot and returns its slot number.
// It returns ErrPageFull when the record does not fit and
// ErrRecordTooBig when it could never fit even in an empty page.
func (p *Page) Insert(rec []byte) (uint16, error) {
	if len(rec)+slotOverhead > p.size {
		return 0, ErrRecordTooBig
	}
	if !p.Fits(len(rec)) {
		return 0, ErrPageFull
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	p.slots = append(p.slots, cp)
	p.used += len(rec) + slotOverhead
	return uint16(len(p.slots) - 1), nil
}

// InsertBatch stores the longest prefix of recs that fits in
// consecutive fresh slots, sharing one backing allocation across the
// run, and returns the first slot number and the count stored. A stop
// before len(recs) means the page is full for the next record; the
// error is non-nil (ErrRecordTooBig) only when that record could never
// fit even in an empty page.
func (p *Page) InsertBatch(recs [][]byte) (uint16, int, error) {
	n, total := 0, 0
	free := p.Free()
	var err error
	for _, rec := range recs {
		if len(rec)+slotOverhead > free {
			if len(rec)+slotOverhead > p.size {
				err = ErrRecordTooBig
			}
			break
		}
		free -= len(rec) + slotOverhead
		total += len(rec)
		n++
	}
	if n == 0 {
		return 0, 0, err
	}
	arena := make([]byte, total)
	first := uint16(len(p.slots))
	off := 0
	for _, rec := range recs[:n] {
		end := off + len(rec)
		copy(arena[off:end], rec)
		p.slots = append(p.slots, arena[off:end:end])
		p.used += len(rec) + slotOverhead
		off = end
	}
	return first, n, err
}

// Get returns the record in the given slot. It returns ErrNoSuchSlot
// for out-of-range slots or tombstones.
func (p *Page) Get(slot uint16) ([]byte, error) {
	if int(slot) >= len(p.slots) || p.slots[slot] == nil {
		return nil, ErrNoSuchSlot
	}
	return p.slots[slot], nil
}

// Delete tombstones the given slot. The byte budget of the record is
// released but the slot number is never reused.
func (p *Page) Delete(slot uint16) error {
	if int(slot) >= len(p.slots) || p.slots[slot] == nil {
		return ErrNoSuchSlot
	}
	p.used -= len(p.slots[slot]) + slotOverhead
	// Keep the slot-directory overhead accounted: the directory entry
	// itself is not reclaimed.
	p.used += slotOverhead
	p.slots[slot] = nil
	return nil
}

// Update replaces the record in slot with rec if it fits within the
// page's remaining budget (plus the space of the old record).
func (p *Page) Update(slot uint16, rec []byte) error {
	if int(slot) >= len(p.slots) || p.slots[slot] == nil {
		return ErrNoSuchSlot
	}
	old := len(p.slots[slot])
	if p.used-old+len(rec) > p.size {
		return ErrPageFull
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	p.used += len(rec) - old
	p.slots[slot] = cp
	return nil
}

// The three methods below serve pages whose slot order carries meaning —
// B-tree nodes, which keep their entries sorted by slot. They renumber
// slots, so heap pages, whose RIDs must stay stable, never use them.

// Used returns the bytes consumed, slot overhead included.
func (p *Page) Used() int { return p.used }

// Records returns the slot directory: element i is the record in slot
// i. The view is valid until the page's next structural change and is
// read-only, except that the page's owner may overwrite a fixed-width
// field of a record in place once the page has been fetched dirty.
func (p *Page) Records() [][]byte { return p.slots }

// InsertAt stores rec in the given slot, moving the records at slot and
// above one slot up: it shifts the slot directory and writes one record.
func (p *Page) InsertAt(slot int, rec []byte) error {
	if slot < 0 || slot > len(p.slots) {
		return ErrNoSuchSlot
	}
	if !p.Fits(len(rec)) {
		return ErrPageFull
	}
	p.slots = slices.Insert(p.slots, slot, append([]byte(nil), rec...))
	p.used += len(rec) + slotOverhead
	return nil
}

// RemoveAt drops the given slot, moving the records above it one slot
// down and releasing the record's bytes and its directory entry.
func (p *Page) RemoveAt(slot int) error {
	if slot < 0 || slot >= len(p.slots) {
		return ErrNoSuchSlot
	}
	p.used -= len(p.slots[slot]) + slotOverhead
	p.slots = slices.Delete(p.slots, slot, slot+1)
	return nil
}

// Truncate drops slot n and every slot above it.
func (p *Page) Truncate(n int) {
	for _, rec := range p.slots[n:] {
		p.used -= len(rec) + slotOverhead
	}
	clear(p.slots[n:])
	p.slots = p.slots[:n]
}
