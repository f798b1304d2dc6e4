// Package competition implements the cost model of the paper's
// Section 3: competition between alternative plans whose costs follow
// L-shaped (truncated-hyperbola) distributions.
//
// The analytic half of the package evaluates the expected cost of
//
//   - the traditional arrangement (pick the lowest-mean plan, run it to
//     the end),
//   - direct competition with a switch point (run the riskier plan
//     until its invested cost reaches c2, then switch),
//   - proportional simultaneous runs (advance both plans with speeds
//     alpha : 1-alpha until the first completes),
//
// and finds optimal switch points and speed ratios numerically. The
// paper's headline claim — that the switch arrangement costs about
// (m2 + c2 + M1)/2, roughly half the traditional M1 — is reproduced by
// the package's tests and by the T3.C experiment.
//
// The runtime half is SwitchCriterion, the rule the Jscan executor
// (Section 6) applies while scanning: abandon the current index scan
// when the projected final retrieval cost approaches the guaranteed
// best cost, or when the scan cost itself starts to dominate it.
package competition

import (
	"fmt"
	"math"

	"rdbdyn/internal/dist"
)

// CostDist is a cost distribution: a shape on [0,1] scaled so that
// selectivity s corresponds to cost s*Scale.
type CostDist struct {
	D     *dist.Dist
	Scale float64
}

// Mean returns the expected cost.
func (c CostDist) Mean() float64 { return c.D.Mean() * c.Scale }

// CDF returns P(C <= x).
func (c CostDist) CDF(x float64) float64 { return c.D.CDF(x / c.Scale) }

// Quantile returns the cost at quantile p.
func (c CostDist) Quantile(p float64) float64 { return c.D.Quantile(p) * c.Scale }

// PartialMean returns E[C * 1{C <= x}] — the mean restricted to
// completions at or below cost x (unnormalized).
func (c CostDist) PartialMean(x float64) float64 {
	var m float64
	n := c.D.N()
	for i := 0; i < n; i++ {
		cost := c.D.Center(i) * c.Scale
		if cost > x {
			break
		}
		m += c.D.Mass(i) * cost
	}
	return m
}

// LShaped builds the canonical L-shaped cost distribution of Section 3:
// headMass of the probability uniformly inside [0, head*scale] and the
// rest spread hyperbolically over (head*scale, scale]. It is the
// workload generator for competition experiments.
func LShaped(n int, scale, head, headMass float64) (CostDist, error) {
	if head <= 0 || head >= 1 || headMass <= 0 || headMass >= 1 {
		return CostDist{}, fmt.Errorf("competition: head and headMass must be in (0,1)")
	}
	d := dist.NewZero(n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		s := d.Center(i)
		if s <= head {
			w[i] = headMass / head
		} else {
			// Hyperbolic tail ~ 1/(s + head); normalized below.
			w[i] = 1 / (s + head)
		}
	}
	// Normalize the tail region to carry 1-headMass.
	var tail float64
	for i := 0; i < n; i++ {
		if d.Center(i) > head {
			tail += w[i]
		}
	}
	for i := 0; i < n; i++ {
		if d.Center(i) > head {
			w[i] *= (1 - headMass) / tail * float64(n)
		}
	}
	dd, err := dist.FromWeights(w)
	if err != nil {
		return CostDist{}, err
	}
	return CostDist{D: dd, Scale: scale}, nil
}

// TraditionalCost returns the expected cost of the traditional
// optimizer's arrangement: run the lowest-mean plan to the end.
func TraditionalCost(plans ...CostDist) float64 {
	best := math.Inf(1)
	for _, p := range plans {
		if m := p.Mean(); m < best {
			best = m
		}
	}
	return best
}

// SwitchCost returns the expected cost of the direct-competition switch
// arrangement: run plan p2 until its invested cost reaches c2; if it
// has not completed, abandon it and run plan A1 (expected cost m1) from
// scratch.
//
//	E = E[C2 ; C2 <= c2] + P(C2 > c2) * (c2 + m1)
//
// With the paper's 50% head assumption this reduces to
// (m2 + c2 + M1)/2.
func SwitchCost(p2 CostDist, c2, m1 float64) float64 {
	pDone := p2.CDF(c2)
	return p2.PartialMean(c2) + (1-pDone)*(c2+m1)
}

// OptimalSwitch finds the switch point c2 minimizing SwitchCost by
// scanning the quantiles of p2. It returns the best point and its
// expected cost.
func OptimalSwitch(p2 CostDist, m1 float64) (c2, cost float64) {
	best := math.Inf(1)
	bestC := 0.0
	n := p2.D.N()
	for i := 0; i <= n; i++ {
		c := float64(i) / float64(n) * p2.Scale
		if e := SwitchCost(p2, c, m1); e < best {
			best, bestC = e, c
		}
	}
	return bestC, best
}

// ProportionalCost returns the expected total cost of running two plans
// simultaneously, plan 1 at speed alpha and plan 2 at speed 1-alpha
// (0 < alpha < 1), stopping when the first completes. Total invested
// cost at the moment plan i has spent c_i is c_i/speed_i, so
//
//	E = E[min(C1/alpha, C2/(1-alpha))]
//
// computed by numeric integration over the two independent cost
// distributions.
func ProportionalCost(p1, p2 CostDist, alpha float64) (float64, error) {
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("competition: alpha must be in (0,1), got %v", alpha)
	}
	var e float64
	n1, n2 := p1.D.N(), p2.D.N()
	for i := 0; i < n1; i++ {
		w1 := p1.D.Mass(i)
		if w1 == 0 {
			continue
		}
		t1 := p1.D.Center(i) * p1.Scale / alpha
		for j := 0; j < n2; j++ {
			w2 := p2.D.Mass(j)
			if w2 == 0 {
				continue
			}
			t2 := p2.D.Center(j) * p2.Scale / (1 - alpha)
			t := t1
			if t2 < t1 {
				t = t2
			}
			e += w1 * w2 * t
		}
	}
	return e, nil
}

// OptimalAlpha searches for the speed ratio minimizing
// ProportionalCost. It returns the best alpha and its expected cost.
func OptimalAlpha(p1, p2 CostDist) (alpha, cost float64, err error) {
	best := math.Inf(1)
	bestA := 0.5
	for a := 0.05; a < 1; a += 0.05 {
		e, err := ProportionalCost(p1, p2, a)
		if err != nil {
			return 0, 0, err
		}
		if e < best {
			best, bestA = e, a
		}
	}
	return bestA, best, nil
}

// SwitchCriterion is the runtime strategy-switch rule of Section 6.
//
// An index scan (the cheap first stage of RID-list retrieval) is
// abandoned when the projected final-stage cost approaches the
// guaranteed best retrieval cost: "the scan is terminated and discarded
// when the projected retrieval cost approaches (e.g. becomes 95% of)
// the guaranteed best retrieval cost". Additionally, when a large
// portion of RIDs is rejected by filters the scan cost itself may
// dominate an already small guaranteed best cost, so the criterion is
// extended with a scan-cost limit set to a proportion of the guaranteed
// best.
type SwitchCriterion struct {
	// Threshold is the fraction of the guaranteed best cost at which a
	// projected final cost triggers abandonment (paper example: 0.95).
	Threshold float64
	// ScanCostFrac is the fraction of the guaranteed best cost the
	// first-stage scan itself may consume before being abandoned.
	ScanCostFrac float64
}

// DefaultSwitchCriterion returns the paper's example settings.
func DefaultSwitchCriterion() SwitchCriterion {
	return SwitchCriterion{Threshold: 0.95, ScanCostFrac: 0.5}
}

// Abandon reports whether the current scan should be terminated, given
// the projected cost of the final retrieval stage, the cost invested in
// the scan so far, and the guaranteed best retrieval cost.
func (c SwitchCriterion) Abandon(projectedFinal, scanCost, guaranteedBest float64) bool {
	if guaranteedBest <= 0 {
		return true
	}
	if projectedFinal >= c.Threshold*guaranteedBest {
		return true
	}
	return scanCost >= c.ScanCostFrac*guaranteedBest
}
