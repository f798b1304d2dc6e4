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
//
// The records live in one byte arena, allocated at the page budget on
// the first write, behind a pointer-free slot directory. The arena is
// write-once: a record is appended at its tail and its bytes are never
// overwritten, so every slice Get or Record handed out keeps its bytes
// for as long as it is held. A record that does not fit the tail moves
// the live records into a fresh arena (see reserve); the old one stays
// with whoever still views it.
type Page struct {
	ID   PageID
	data []byte // the arena: written once, appended at the tail
	dir  []span // slot directory; off == tombstone marks a deleted slot
	used int    // bytes consumed, including slot overhead
	size int    // byte budget
}

// span locates one record in the page's arena.
type span struct{ off, n uint32 }

// tombstone is the span offset of a deleted slot; its length is 0, so
// a tombstone costs the budget only its directory entry.
const tombstone = ^uint32(0)

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
func (p *Page) NumSlots() int { return len(p.dir) }

// Fits reports whether a record of n bytes can be inserted.
func (p *Page) Fits(n int) bool { return n+slotOverhead <= p.Free() }

// reserve makes room for n more bytes at the arena's tail. When the
// tail is too short, the live records are copied into a fresh arena
// with at least half a page of tail free beyond the n bytes, and the
// directory's offsets are rewritten; the old arena is never written
// again. Churn on a full page therefore compacts at most once per half
// page of appended bytes.
func (p *Page) reserve(n int) {
	if p.data == nil {
		p.data = make([]byte, 0, p.size)
	}
	if len(p.data)+n <= cap(p.data) {
		return
	}
	live := 0
	for _, s := range p.dir {
		if s.off != tombstone {
			live += int(s.n)
		}
	}
	fresh := make([]byte, 0, live+n+p.size/2)
	for i, s := range p.dir {
		if s.off != tombstone {
			p.dir[i].off = uint32(len(fresh))
			fresh = append(fresh, p.data[s.off:s.off+s.n]...)
		}
	}
	p.data = fresh
}

// put appends rec to the arena and returns its span; the caller has
// checked the byte budget.
func (p *Page) put(rec []byte) span {
	p.reserve(len(rec))
	s := span{off: uint32(len(p.data)), n: uint32(len(rec))}
	p.data = append(p.data, rec...)
	p.used += len(rec) + slotOverhead
	return s
}

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
	p.dir = append(p.dir, p.put(rec))
	return uint16(len(p.dir) - 1), nil
}

// InsertBatch stores the longest prefix of recs that fits in
// consecutive fresh slots and returns the first slot number and the
// count stored. A stop before len(recs) means the page is full for the
// next record; the error is non-nil (ErrRecordTooBig) only when that
// record could never fit even in an empty page.
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
	p.reserve(total) // one compaction at most for the whole run
	first := uint16(len(p.dir))
	for _, rec := range recs[:n] {
		p.dir = append(p.dir, p.put(rec))
	}
	return first, n, err
}

// Record returns the record in slot i, which must be a live slot in
// [0, NumSlots). The slice views the page's arena, capped at the
// record's length, and is read-only, except that the page's owner may
// overwrite a fixed-width field of a record in place once the page has
// been fetched dirty.
func (p *Page) Record(i int) []byte {
	s := p.dir[i]
	return p.data[s.off : s.off+s.n : s.off+s.n]
}

// Get returns the record in the given slot. It returns ErrNoSuchSlot
// for out-of-range slots or tombstones.
func (p *Page) Get(slot uint16) ([]byte, error) {
	if int(slot) >= len(p.dir) || p.dir[slot].off == tombstone {
		return nil, ErrNoSuchSlot
	}
	return p.Record(int(slot)), nil
}

// Delete tombstones the given slot. The byte budget of the record is
// released but the slot number is never reused.
func (p *Page) Delete(slot uint16) error {
	if int(slot) >= len(p.dir) || p.dir[slot].off == tombstone {
		return ErrNoSuchSlot
	}
	// Keep the slot-directory overhead accounted: the directory entry
	// itself is not reclaimed.
	p.used -= int(p.dir[slot].n)
	p.dir[slot] = span{off: tombstone}
	return nil
}

// Update replaces the record in slot with rec if it fits within the
// page's remaining budget (plus the space of the old record).
func (p *Page) Update(slot uint16, rec []byte) error {
	if int(slot) >= len(p.dir) || p.dir[slot].off == tombstone {
		return ErrNoSuchSlot
	}
	old := int(p.dir[slot].n)
	if p.used-old+len(rec) > p.size {
		return ErrPageFull
	}
	p.used -= old + slotOverhead
	p.dir[slot] = p.put(rec)
	return nil
}

// The three methods below serve pages whose slot order carries meaning —
// B-tree nodes, which keep their entries sorted by slot. They renumber
// slots, so heap pages, whose RIDs must stay stable, never use them.

// Used returns the bytes consumed, slot overhead included.
func (p *Page) Used() int { return p.used }

// InsertAt stores rec in the given slot, moving the records at slot and
// above one slot up: it shifts the slot directory and appends one record.
func (p *Page) InsertAt(slot int, rec []byte) error {
	if slot < 0 || slot > len(p.dir) {
		return ErrNoSuchSlot
	}
	if !p.Fits(len(rec)) {
		return ErrPageFull
	}
	p.dir = slices.Insert(p.dir, slot, p.put(rec))
	return nil
}

// RemoveAt drops the given slot, moving the records above it one slot
// down and releasing the record's bytes and its directory entry.
func (p *Page) RemoveAt(slot int) error {
	if slot < 0 || slot >= len(p.dir) {
		return ErrNoSuchSlot
	}
	p.used -= int(p.dir[slot].n) + slotOverhead
	p.dir = slices.Delete(p.dir, slot, slot+1)
	return nil
}

// Truncate drops slot n and every slot above it.
func (p *Page) Truncate(n int) {
	for _, s := range p.dir[n:] {
		p.used -= int(s.n) + slotOverhead
	}
	p.dir = p.dir[:n]
}
