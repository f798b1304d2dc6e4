package rid

import (
	"fmt"
	"math/rand"
	"testing"

	"rdbdyn/internal/storage"
)

// indexOrder returns n distinct RIDs spread over pages data pages of 94
// slots each (the shape of a 100k-row table on 1063 pages) in the order
// an index on an uncorrelated column lists them: pages shuffled.
func indexOrder(n, pages int, seed int64) []storage.RID {
	rng := rand.New(rand.NewSource(seed))
	rids := make([]storage.RID, n)
	for i, x := range rng.Perm(pages * 94)[:n] {
		rids[i] = storage.RID{Page: storage.PageID{File: 1, No: storage.PageNo(x / 94)}, Slot: uint16(x % 94)}
	}
	return rids
}

func BenchmarkContainerAppendSmall(b *testing.B) {
	// The L-shape head: lists that never leave the static buffer.
	b.ReportAllocs()
	pool := newPool()
	for i := 0; i < b.N; i++ {
		c := NewContainer(pool, DefaultConfig())
		for j := 0; j < 10; j++ {
			if err := c.Append(ridN(j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkContainerAppendLarge(b *testing.B) {
	pool := newPool()
	c := NewContainer(pool, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Append(ridN(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitmapAddAndProbe(b *testing.B) {
	bm := &CompressedBitmap{}
	for i := 0; i < 1<<16; i++ {
		bm.Add(ridN(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.MayContain(ridN(i))
	}
}

func BenchmarkBitmapFilterBatch(b *testing.B) {
	bm := &CompressedBitmap{}
	for i := 0; i < 1<<16; i += 2 {
		bm.Add(ridN(i))
	}
	rids := make([]storage.RID, 4096)
	for i := range rids {
		rids[i] = ridN(i)
	}
	keep := make([]bool, len(rids))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.FilterBatch(rids, keep)
	}
}

func BenchmarkSortedKeysProbe(b *testing.B) {
	rids := make([]storage.RID, 4096)
	for i := range rids {
		rids[i] = ridN(i * 2)
	}
	s := &sortedKeys{keys: keysOf(rids)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MayContain(ridN(i % 8192))
	}
}

// sinkFilter keeps the benchmarked builds from being optimized away.
var sinkFilter Filter

// BenchmarkFilterBuildIndexOrder builds a list's filter from RIDs in a
// Jscan's index-key order — pages shuffled, as an index on a column
// uncorrelated with the table's order lists them — over 1 063 pages.
func BenchmarkFilterBuildIndexOrder(b *testing.B) {
	for _, n := range []int{1000, 4096} {
		rids := indexOrder(n, 1063, 1)
		b.Run(fmt.Sprintf("Container.Filter/%d", n), func(b *testing.B) {
			c := NewContainer(newPool(), DefaultConfig())
			if err := c.AppendBatch(rids); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFilter = c.Filter()
			}
		})
		b.Run(fmt.Sprintf("FromRIDs/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFilter = FromRIDs(rids)
			}
		})
	}
}

// BenchmarkFilterBatchIndexOrder probes a 1 000-RID list's filter with
// 4 096 RIDs in index-key order, the second index of an intersection.
func BenchmarkFilterBatchIndexOrder(b *testing.B) {
	probes := indexOrder(4096, 1063, 2)
	keep := make([]bool, len(probes))
	c := NewContainer(newPool(), DefaultConfig())
	if err := c.AppendBatch(indexOrder(1000, 1063, 1)); err != nil {
		b.Fatal(err)
	}
	for _, f := range []struct {
		name string
		f    Filter
	}{{"Container.Filter", c.Filter()}, {"FromRIDs", FromRIDs(indexOrder(1000, 1063, 1))}} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.f.FilterBatch(probes, keep)
			}
		})
	}
}
