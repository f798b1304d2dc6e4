package competition

import (
	"math"
	"testing"

	"rdbdyn/internal/dist"
)

func mustLShaped(t *testing.T, scale, head, headMass float64) CostDist {
	t.Helper()
	c, err := LShaped(512, scale, head, headMass)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLShapedShape(t *testing.T) {
	c := mustLShaped(t, 1000, 0.02, 0.5)
	// Half the mass below head*scale = 20.
	if got := c.CDF(20); math.Abs(got-0.5) > 0.02 {
		t.Fatalf("head mass = %v, want ~0.5", got)
	}
	// Mean far above the median (L-shape).
	if c.Mean() < 5*c.Quantile(0.5) {
		t.Fatalf("mean %v should dwarf median %v", c.Mean(), c.Quantile(0.5))
	}
}

func TestLShapedValidation(t *testing.T) {
	for _, bad := range [][3]float64{{1000, 0, 0.5}, {1000, 1, 0.5}, {1000, 0.1, 0}, {1000, 0.1, 1}} {
		if _, err := LShaped(128, bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("accepted %v", bad)
		}
	}
}

func TestCostDistBasics(t *testing.T) {
	d := dist.Uniform(256)
	c := CostDist{D: d, Scale: 100}
	if math.Abs(c.Mean()-50) > 1 {
		t.Fatalf("mean = %v", c.Mean())
	}
	if math.Abs(c.CDF(25)-0.25) > 0.02 {
		t.Fatalf("CDF(25) = %v", c.CDF(25))
	}
	// PartialMean over everything equals the mean.
	if math.Abs(c.PartialMean(100)-c.Mean()) > 1e-6 {
		t.Fatalf("PartialMean(max) = %v, mean %v", c.PartialMean(100), c.Mean())
	}
}

func TestSwitchCostMatchesPaperFormula(t *testing.T) {
	// Section 3: both plans L-shaped with 50% mass in [0, c2]; running
	// A2 to c2 then switching to A1 costs (m2 + c2 + M1)/2.
	p2 := mustLShaped(t, 1000, 0.02, 0.5)
	m1 := 400.0 // A1's mean cost (M1 <= M2)
	c2 := p2.Quantile(0.5)
	got := SwitchCost(p2, c2, m1)
	// m2 = mean of A2 on [0, c2], conditioned: PartialMean/0.5.
	m2 := p2.PartialMean(c2) / p2.CDF(c2)
	want := (m2 + c2 + m1) / 2
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("SwitchCost = %v, paper formula gives %v", got, want)
	}
	// And the arrangement beats the traditional M1 by roughly 2x.
	if got > 0.65*m1 {
		t.Fatalf("switch arrangement %v not clearly better than traditional %v", got, m1)
	}
}

func TestOptimalSwitchNoWorseThanFixed(t *testing.T) {
	p2 := mustLShaped(t, 1000, 0.05, 0.5)
	m1 := 300.0
	cOpt, eOpt := OptimalSwitch(p2, m1)
	for _, c := range []float64{10, 50, 100, 500, 999} {
		if e := SwitchCost(p2, c, m1); e < eOpt-1e-9 {
			t.Fatalf("OptimalSwitch %v@%v beaten by fixed %v@%v", eOpt, cOpt, e, c)
		}
	}
	// Never worse than not running A2 at all (switch at 0 = just A1).
	if eOpt > SwitchCost(p2, 0, m1)+1e-9 {
		t.Fatalf("optimal switch %v worse than degenerate %v", eOpt, SwitchCost(p2, 0, m1))
	}
}

func TestProportionalCostDegenerateCases(t *testing.T) {
	// Against a point-cost competitor, min(C1/a, C2/(1-a)) is exact.
	p1 := CostDist{D: dist.Point(512, 0.5), Scale: 100} // C1 = 50 always
	p2 := CostDist{D: dist.Point(512, 0.5), Scale: 400} // C2 = 200 always
	got, err := ProportionalCost(p1, p2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// min(50/0.5, 200/0.5) = 100.
	if math.Abs(got-100) > 2 {
		t.Fatalf("proportional cost = %v, want ~100", got)
	}
	if _, err := ProportionalCost(p1, p2, 0); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if _, err := ProportionalCost(p1, p2, 1); err == nil {
		t.Fatal("alpha=1 accepted")
	}
}

func TestProportionalBeatsTraditionalOnLShapes(t *testing.T) {
	// Section 3: with truncated-hyperbola L-shapes, running both plans
	// simultaneously with proportional speeds beats running the
	// lowest-mean plan alone.
	p1 := mustLShaped(t, 800, 0.03, 0.5)
	p2 := mustLShaped(t, 1000, 0.03, 0.5)
	trad := TraditionalCost(p1, p2)
	_, prop, err := OptimalAlpha(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if prop >= trad {
		t.Fatalf("proportional run %v not better than traditional %v", prop, trad)
	}
	if prop > 0.7*trad {
		t.Fatalf("proportional run %v should clearly beat traditional %v on L-shapes", prop, trad)
	}
}

func TestOptimalAlphaWithinRange(t *testing.T) {
	p1 := mustLShaped(t, 500, 0.05, 0.5)
	p2 := mustLShaped(t, 500, 0.05, 0.5)
	a, cost, err := OptimalAlpha(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 || a >= 1 {
		t.Fatalf("alpha = %v", a)
	}
	// Symmetric plans: optimum near 0.5.
	if math.Abs(a-0.5) > 0.15 {
		t.Fatalf("symmetric plans should race near alpha=0.5, got %v", a)
	}
	if cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
}

func TestTraditionalCostPicksMinimum(t *testing.T) {
	p1 := CostDist{D: dist.Point(64, 0.5), Scale: 100}
	p2 := CostDist{D: dist.Point(64, 0.5), Scale: 60}
	if got := TraditionalCost(p1, p2); math.Abs(got-30) > 1 {
		t.Fatalf("traditional = %v, want ~30", got)
	}
}

func TestSwitchCriterion(t *testing.T) {
	c := DefaultSwitchCriterion()
	// Projection well below the guaranteed best: keep going.
	if c.Abandon(50, 5, 1000) {
		t.Fatal("should not abandon a promising scan")
	}
	// Projection at 96% of guaranteed best: abandon.
	if !c.Abandon(960, 5, 1000) {
		t.Fatal("should abandon when projection approaches guaranteed best")
	}
	// Scan cost itself dominating a small guaranteed best: abandon.
	if !c.Abandon(10, 600, 1000) {
		t.Fatal("should abandon when scan cost dominates")
	}
	// Zero guaranteed best (already have a free plan): abandon.
	if !c.Abandon(0, 0, 0) {
		t.Fatal("should abandon when guaranteed best is zero")
	}
}
