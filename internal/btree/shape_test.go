package btree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// shapeWorkload builds the golden tree for one seed: random int and
// string keys of mixed length (duplicates included), one delete in five.
func shapeWorkload(t testing.TB, seed int64, pageSize, ops int) *BTree {
	tr, _ := newTestTree(t, pageSize)
	rng := rand.New(rand.NewSource(seed))
	type ent struct {
		k []byte
		r storage.RID
	}
	var live []ent
	for i := 0; i < ops; i++ {
		if len(live) > 0 && rng.Intn(5) == 0 {
			j := rng.Intn(len(live))
			if ok, err := tr.Delete(live[j].k, live[j].r); err != nil || !ok {
				t.Fatalf("delete: %v %v", ok, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		var k []byte
		if rng.Intn(2) == 0 {
			k = intKey(rng.Int63n(int64(ops / 4)))
		} else {
			b := make([]byte, 1+rng.Intn(40))
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			k = expr.EncodeKey(nil, expr.Str(string(b)))
		}
		r := ridFor(i)
		if err := tr.Insert(k, r); err != nil {
			t.Fatal(err)
		}
		live = append(live, ent{k, r})
	}
	return tr
}

// shapeHash hashes, level by level from the root and left to right,
// each node's entry count and first key.
func shapeHash(t testing.TB, tr *BTree) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	level := []storage.PageNo{tr.root}
	for len(level) > 0 {
		var next []storage.PageNo
		for _, no := range level {
			n, err := tr.load(no, nil)
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint32(buf[:], uint32(n.numEnts()))
			h.Write(buf[:])
			if n.numEnts() > 0 {
				h.Write(n.key(0))
			}
			for i := 0; !n.leaf && i < n.numChildren(); i++ {
				next = append(next, n.child(i))
			}
		}
		h.Write([]byte{0xff})
		level = next
	}
	return h.Sum64()
}

// TestShapeGolden pins the split rule: the same function of a node's
// contents as before the page became the node, so every tree has the
// shape it had then. The figures were recorded at the parent commit
// (decoded nodes, re-encoded on every store) from these workloads.
func TestShapeGolden(t *testing.T) {
	for _, c := range []struct {
		seed          int64
		pageSize, ops int
		len           int64
		height, nodes int
		leafEntries   string
		fanout        string
		hash          uint64
	}{
		{1, 256, 20000, 11982, 7, 3204, "4.982121", "4.008761", 0x678765abedf74f2d},
		{2, 512, 30000, 18096, 5, 1774, "11.652286", "8.022624", 0x37730d8655668429},
		{3, 8192, 120000, 72014, 3, 368, "197.298630", "122.333333", 0xd6df7c531dc0fc32},
	} {
		tr := shapeWorkload(t, c.seed, c.pageSize, c.ops)
		leafEntries, fanout := fmt.Sprintf("%.6f", tr.AvgLeafEntries()), fmt.Sprintf("%.6f", tr.AvgInternalFanout())
		if tr.Len() != c.len || tr.Height() != c.height || tr.NumNodes() != c.nodes || leafEntries != c.leafEntries || fanout != c.fanout {
			t.Errorf("seed %d: len %d height %d nodes %d leaf entries %s fanout %s, want %d %d %d %s %s",
				c.seed, tr.Len(), tr.Height(), tr.NumNodes(), leafEntries, fanout, c.len, c.height, c.nodes, c.leafEntries, c.fanout)
		}
		if h := shapeHash(t, tr); h != c.hash {
			t.Errorf("seed %d: per-level (entries, first key) hash %#x, want %#x", c.seed, h, c.hash)
		}
	}
}
