package storage

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
)

// raceEnabled is set by raceon_test.go when the race detector is on.
var raceEnabled bool

// refPage is the reference the arena page is checked against: one
// slice per slot, nil for a tombstone, with the same byte budget rules.
type refPage struct {
	slots [][]byte
	used  int
	size  int
}

func (r *refPage) free() int { return r.size - r.used }

func (r *refPage) live(slot int) bool { return slot < len(r.slots) && r.slots[slot] != nil }

func (r *refPage) insert(rec []byte) (uint16, error) {
	if len(rec)+slotOverhead > r.size {
		return 0, ErrRecordTooBig
	}
	if len(rec)+slotOverhead > r.free() {
		return 0, ErrPageFull
	}
	r.slots = append(r.slots, append([]byte{}, rec...))
	r.used += len(rec) + slotOverhead
	return uint16(len(r.slots) - 1), nil
}

func (r *refPage) insertBatch(recs [][]byte) (uint16, int, error) {
	first := uint16(len(r.slots))
	for i, rec := range recs {
		if _, err := r.insert(rec); err != nil {
			if err == ErrPageFull {
				err = nil
			}
			return first, i, err
		}
	}
	return first, len(recs), nil
}

func (r *refPage) update(slot int, rec []byte) error {
	if !r.live(slot) {
		return ErrNoSuchSlot
	}
	if r.used-len(r.slots[slot])+len(rec) > r.size {
		return ErrPageFull
	}
	r.used += len(rec) - len(r.slots[slot])
	r.slots[slot] = append([]byte{}, rec...)
	return nil
}

func (r *refPage) delete(slot int) error {
	if !r.live(slot) {
		return ErrNoSuchSlot
	}
	r.used -= len(r.slots[slot])
	r.slots[slot] = nil
	return nil
}

func (r *refPage) insertAt(slot int, rec []byte) error {
	if slot < 0 || slot > len(r.slots) {
		return ErrNoSuchSlot
	}
	if len(rec)+slotOverhead > r.free() {
		return ErrPageFull
	}
	r.slots = append(r.slots[:slot], append([][]byte{append([]byte{}, rec...)}, r.slots[slot:]...)...)
	r.used += len(rec) + slotOverhead
	return nil
}

func (r *refPage) removeAt(slot int) error {
	if slot < 0 || slot >= len(r.slots) {
		return ErrNoSuchSlot
	}
	r.used -= len(r.slots[slot]) + slotOverhead
	r.slots = append(r.slots[:slot], r.slots[slot+1:]...)
	return nil
}

func (r *refPage) truncate(n int) {
	for _, rec := range r.slots[n:] {
		r.used -= len(rec) + slotOverhead
	}
	r.slots = r.slots[:n]
}

// TestPageMatchesModel runs random operation sequences against the arena
// page and the reference: results, errors and the byte budget agree
// after every operation, and every record slice the page handed out
// keeps its bytes through every later operation, compactions included.
func TestPageMatchesModel(t *testing.T) {
	const size = 1024
	compactions := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, ref := NewPage(PageID{}, size), &refPage{size: size}
		type held struct{ view, want []byte }
		var views []held
		keep := func(v []byte) {
			views = append(views, held{v, append([]byte{}, v...)})
		}
		rec := func() []byte {
			n := rng.Intn(120)
			if rng.Intn(50) == 0 {
				n = size - slotOverhead + rng.Intn(3) - 1 // around the largest record
			}
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		slot := func() int { return rng.Intn(len(ref.slots) + 2) }
		for step := 0; step < 400; step++ {
			arena := p.data
			switch op := rng.Intn(9); op {
			case 0, 1:
				r := rec()
				gs, gerr := p.Insert(r)
				ws, werr := ref.insert(r)
				if gerr != werr || (werr == nil && gs != ws) {
					t.Fatalf("seed %d step %d: Insert = %d, %v; want %d, %v", seed, step, gs, gerr, ws, werr)
				}
			case 2:
				recs := make([][]byte, rng.Intn(6))
				for i := range recs {
					recs[i] = rec()
				}
				gf, gn, gerr := p.InsertBatch(recs)
				wf, wn, werr := ref.insertBatch(recs)
				if gn != wn || gerr != werr || (wn > 0 && gf != wf) {
					t.Fatalf("seed %d step %d: InsertBatch = %d, %d, %v; want %d, %d, %v", seed, step, gf, gn, gerr, wf, wn, werr)
				}
			case 3:
				s, r := slot(), rec()
				if gerr, werr := p.Update(uint16(s), r), ref.update(s, r); gerr != werr {
					t.Fatalf("seed %d step %d: Update(%d) = %v; want %v", seed, step, s, gerr, werr)
				}
			case 4:
				s := slot()
				if gerr, werr := p.Delete(uint16(s)), ref.delete(s); gerr != werr {
					t.Fatalf("seed %d step %d: Delete(%d) = %v; want %v", seed, step, s, gerr, werr)
				}
			case 5:
				s, r := slot()-1, rec()
				if gerr, werr := p.InsertAt(s, r), ref.insertAt(s, r); gerr != werr {
					t.Fatalf("seed %d step %d: InsertAt(%d) = %v; want %v", seed, step, s, gerr, werr)
				}
			case 6:
				s := slot() - 1
				if gerr, werr := p.RemoveAt(s), ref.removeAt(s); gerr != werr {
					t.Fatalf("seed %d step %d: RemoveAt(%d) = %v; want %v", seed, step, s, gerr, werr)
				}
			case 7:
				if rng.Intn(4) == 0 {
					n := rng.Intn(len(ref.slots) + 1)
					p.Truncate(n)
					ref.truncate(n)
				}
			case 8:
				s := slot()
				got, gerr := p.Get(uint16(s))
				if !ref.live(s) {
					if gerr != ErrNoSuchSlot {
						t.Fatalf("seed %d step %d: Get(%d) of no record = %v", seed, step, s, gerr)
					}
					break
				}
				if gerr != nil || !bytes.Equal(got, ref.slots[s]) {
					t.Fatalf("seed %d step %d: Get(%d) = %x, %v; want %x", seed, step, s, got, gerr, ref.slots[s])
				}
				keep(got)
			}
			if len(arena) > 0 && len(p.data) > 0 && &arena[0] != &p.data[0] {
				compactions++
			}
			if p.Used() != ref.used || p.Free() != ref.free() || p.NumSlots() != len(ref.slots) {
				t.Fatalf("seed %d step %d: used %d free %d slots %d; want %d %d %d",
					seed, step, p.Used(), p.Free(), p.NumSlots(), ref.used, ref.free(), len(ref.slots))
			}
			for i, want := range ref.slots {
				if want == nil {
					continue
				}
				if got := p.Record(i); !bytes.Equal(got, want) || cap(got) != len(got) {
					t.Fatalf("seed %d step %d: Record(%d) = %x (cap %d); want %x", seed, step, i, got, cap(got), want)
				}
				if rng.Intn(8) == 0 {
					keep(p.Record(i))
				}
			}
			for _, h := range views {
				if !bytes.Equal(h.view, h.want) {
					t.Fatalf("seed %d step %d: a record handed out earlier changed: %x, was %x", seed, step, h.view, h.want)
				}
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no operation moved the records to a fresh arena; the model never checked a compaction")
	}
}

// TestAllocsPageHeapFill: filling a heap page allocates the arena once
// and grows the slot directory by doubling — O(log n) allocations for n
// records, not one per record.
func TestAllocsPageHeapFill(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rec := make([]byte, 40)
	var n int
	allocs := testing.AllocsPerRun(20, func() {
		p := NewPage(PageID{}, DefaultPageSize)
		for n = 0; ; n++ {
			if _, err := p.Insert(rec); err != nil {
				break
			}
		}
	})
	// The arena, the page, and one per doubling of the directory, with
	// room for a growth policy that rounds differently.
	if limit := float64(4 + bits.Len(uint(n))); allocs > limit {
		t.Fatalf("filling a page with %d records: %v allocations, want at most %v", n, allocs, limit)
	}
}

// TestAllocsPageLeafInsertAt: a B-tree-style InsertAt that neither
// splits nor compacts writes into the arena's tail and shifts the slot
// directory in place, allocating nothing once the directory has
// capacity.
func TestAllocsPageLeafInsertAt(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	p := NewPage(PageID{}, DefaultPageSize)
	recs := make([][]byte, 100)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte(i)}, 20)
	}
	if _, n, err := p.InsertBatch(recs); err != nil || n != len(recs) {
		t.Fatalf("InsertBatch stored %d, %v", n, err)
	}
	arena, i := &p.data[0], 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.RemoveAt(i % 100); err != nil {
			t.Fatal(err)
		}
		if err := p.InsertAt(i*37%100, recs[i%100]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if &p.data[0] != arena {
		t.Fatal("the page compacted; the measurement is not of the tail-append path")
	}
	if allocs != 0 {
		t.Fatalf("leaf InsertAt: %v allocations, want 0", allocs)
	}
}
