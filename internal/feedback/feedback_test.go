package feedback

import (
	"math"
	"sync"
	"testing"
)

func TestNilRegistryIsNeutral(t *testing.T) {
	var r *Registry
	r.ObserveCardinality("T", "IX", 10, 100) // must not panic
	if got := r.CardCorrection("T", "IX"); got != 1 {
		t.Fatalf("nil CardCorrection = %v", got)
	}
	if r.CorrectionFor("T") != nil {
		t.Fatal("nil registry must curry to nil")
	}
	if r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil registry must be empty")
	}
}

func TestFirstSampleAdoptsRatio(t *testing.T) {
	r := New(0)
	r.ObserveCardinality("T", "IX", 100, 400)
	if got := r.CardCorrection("T", "IX"); got != 4 {
		t.Fatalf("first sample correction = %v, want 4", got)
	}
	// Unseen keys stay neutral.
	if got := r.CardCorrection("T", "OTHER"); got != 1 {
		t.Fatalf("unseen key = %v", got)
	}
	if got := r.CardCorrection("U", "IX"); got != 1 {
		t.Fatalf("unseen table = %v", got)
	}
}

func TestEMAConvergesTowardObservedRatio(t *testing.T) {
	r := New(0.5)
	for i := 0; i < 20; i++ {
		r.ObserveCardinality("T", "IX", 100, 200)
	}
	if got := r.CardCorrection("T", "IX"); math.Abs(got-2) > 1e-9 {
		t.Fatalf("converged correction = %v, want 2", got)
	}
	// A drifted workload pulls the factor over.
	for i := 0; i < 30; i++ {
		r.ObserveCardinality("T", "IX", 100, 50)
	}
	if got := r.CardCorrection("T", "IX"); math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("drifted correction = %v, want ~0.5", got)
	}
}

func TestClamping(t *testing.T) {
	r := New(0)
	r.ObserveCardinality("T", "IX", 1, 1e9)
	if got := r.CardCorrection("T", "IX"); got != 16 {
		t.Fatalf("over-clamp = %v, want 16", got)
	}
	r.ObserveCardinality("T", "IY", 1e9, 1)
	if got := r.CardCorrection("T", "IY"); got != 1.0/16 {
		t.Fatalf("under-clamp = %v, want 1/16", got)
	}
}

func TestBadSamplesIgnored(t *testing.T) {
	r := New(0)
	r.ObserveCardinality("T", "IX", 0, 100)
	r.ObserveCardinality("T", "IX", 100, 0)
	r.ObserveCardinality("T", "IX", -1, 5)
	if r.Len() != 0 {
		t.Fatalf("bad samples recorded, Len = %d", r.Len())
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := New(0)
	r.ObserveCardinality("B", "Z", 1, 2)
	r.ObserveCardinality("A", "Y", 1, 2)
	r.ObserveCardinality("A", "X", 1, 2)
	s := r.Snapshot()
	if len(s) != 3 {
		t.Fatalf("snapshot len = %d", len(s))
	}
	want := []Key{{"A", "X"}, {"A", "Y"}, {"B", "Z"}}
	for i, w := range want {
		if s[i].Table != w.Table || s[i].Index != w.Index {
			t.Fatalf("snapshot[%d] = %s.%s, want %s.%s", i, s[i].Table, s[i].Index, w.Table, w.Index)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.ObserveCardinality("T", "IX", 100, 200)
				_ = r.CardCorrection("T", "IX")
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.CardCorrection("T", "IX"); math.Abs(got-2) > 1e-9 {
		t.Fatalf("card correction = %v, want 2", got)
	}
}
