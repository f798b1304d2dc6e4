package core

import (
	"context"
	"testing"

	"rdbdyn/internal/estimate"
)

// TestBgKillHalfDeadRace kills a jscan mid-race after competition has
// already abandoned one leg (dead leg: cursor closed, pin released).
// bgKill must close only the live leg — releasing every remaining pin
// without double-closing the dead one — and stay idempotent.
func TestBgKillHalfDeadRace(t *testing.T) {
	f := newFixture(t, 2000, "AGE", "CITY")
	q := &Query{Table: f.tab, Goal: GoalTotalTime}

	ec := NewExecCtx(context.Background(), 0)
	cfg := DefaultConfig()
	model := estimate.CostModel{TablePages: f.tab.Pages(), TableRows: f.tab.Cardinality()}
	j := newJscan(ec, q, cfg, model, nil, nil, &tracer{st: &RetrievalStats{}, metrics: &Metrics{}})

	var legs []raceLeg
	for _, ix := range f.tab.Indexes {
		leg, err := j.openLeg(estimate.IndexEstimate{Index: ix, RIDs: 1000})
		if err != nil {
			t.Fatalf("openLeg(%s): %v", ix.Name, err)
		}
		legs = append(legs, leg)
	}
	if len(legs) != 2 {
		t.Fatalf("want 2 legs, got %d", len(legs))
	}
	j.race = &raceState{a: legs[0], b: legs[1]}
	if f.pool.PinnedPages() == 0 {
		t.Fatal("race legs should hold leaf pins")
	}

	// Competition kills leg A: it closes its own cursor immediately.
	j.race.a.dead = true
	j.race.a.cur.Close()

	j.bgKill()
	if n := f.pool.PinnedPages(); n != 0 {
		t.Fatalf("%d pages still pinned after bgKill of half-dead race", n)
	}
	if j.race != nil || !j.done {
		t.Fatal("bgKill must clear the race and mark the scan done")
	}
	// Idempotent: release() funnels into bgKill and may run again during
	// unwind.
	j.bgKill()
	j.release()
	if n := f.pool.PinnedPages(); n != 0 {
		t.Fatalf("%d pages pinned after repeated bgKill", n)
	}
}

// TestBgKillBothLegsDead: the both-dead shape (each cursor already
// closed by competition) must also release cleanly.
func TestBgKillBothLegsDead(t *testing.T) {
	f := newFixture(t, 1000, "AGE", "CITY")
	q := &Query{Table: f.tab, Goal: GoalTotalTime}
	ec := NewExecCtx(context.Background(), 0)
	model := estimate.CostModel{TablePages: f.tab.Pages(), TableRows: f.tab.Cardinality()}
	j := newJscan(ec, q, DefaultConfig(), model, nil, nil, &tracer{st: &RetrievalStats{}, metrics: &Metrics{}})

	a, err := j.openLeg(estimate.IndexEstimate{Index: f.tab.Indexes[0], RIDs: 500})
	if err != nil {
		t.Fatalf("openLeg A: %v", err)
	}
	b, err := j.openLeg(estimate.IndexEstimate{Index: f.tab.Indexes[1], RIDs: 500})
	if err != nil {
		t.Fatalf("openLeg B: %v", err)
	}
	j.race = &raceState{a: a, b: b}
	j.race.a.dead = true
	j.race.a.cur.Close()
	j.race.b.dead = true
	j.race.b.cur.Close()

	j.bgKill()
	if n := f.pool.PinnedPages(); n != 0 {
		t.Fatalf("%d pages pinned after bgKill of dead race", n)
	}
}
