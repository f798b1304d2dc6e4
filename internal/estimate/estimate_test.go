package estimate

import (
	"math"
	"math/rand"
	"testing"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// buildTable creates a FAMILIES-like table with AGE uniform in [0,100)
// and CITY with a skewed distribution, indexed on both.
func buildTable(t *testing.T, rows int) (*catalog.Table, *catalog.Index, *catalog.Index) {
	t.Helper()
	c := catalog.New(storage.NewBufferPool(storage.NewDisk(4096), 0))
	tb, err := c.CreateTable("FAMILIES", []catalog.Column{
		{Name: "ID", Type: expr.TypeInt},
		{Name: "AGE", Type: expr.TypeInt},
		{Name: "CITY", Type: expr.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	ageIx, err := tb.CreateIndex("AGE_IX", "AGE")
	if err != nil {
		t.Fatal(err)
	}
	cityIx, err := tb.CreateIndex("CITY_IX", "CITY")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < rows; i++ {
		age := rng.Int63n(100)
		city := int64(0)
		if rng.Intn(10) == 0 {
			city = 1 + rng.Int63n(99) // 10% spread over 99 cities
		}
		if _, err := tb.Insert(expr.Row{expr.Int(int64(i)), expr.Int(age), expr.Int(city)}); err != nil {
			t.Fatal(err)
		}
	}
	return tb, ageIx, cityIx
}

func ageCol(t *testing.T, tb *catalog.Table) int {
	t.Helper()
	i, err := tb.ColumnIndex("AGE")
	if err != nil {
		t.Fatal(err)
	}
	return i
}

func TestAppraiseOrdersByEstimatedRIDs(t *testing.T) {
	tb, _, _ := buildTable(t, 20000)
	age := ageCol(t, tb)
	cityIdx, _ := tb.ColumnIndex("CITY")
	// AGE in [0,50) matches ~50%; CITY = 77 matches ~0.1%.
	restriction := expr.NewAnd(
		expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(50))),
		expr.NewCmp(expr.EQ, expr.Col(cityIdx, "CITY"), expr.Lit(expr.Int(77))),
	)
	res, err := Appraise(tb.Indexes, restriction, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.EmptyRange {
		t.Fatal("range is not empty")
	}
	if len(res.Estimates) == 0 {
		t.Fatal("no estimates")
	}
	first := res.Estimates[0]
	if first.Index.Name != "CITY_IX" {
		t.Fatalf("most selective index should come first, got %s", first.Index.Name)
	}
	if first.RIDs >= res.Estimates[len(res.Estimates)-1].RIDs {
		t.Fatal("estimates not ascending")
	}
}

func TestAppraiseEmptyRangeCancelsRetrieval(t *testing.T) {
	tb, _, _ := buildTable(t, 5000)
	age := ageCol(t, tb)
	restriction := expr.NewAnd(
		expr.NewCmp(expr.GT, expr.Col(age, "AGE"), expr.Lit(expr.Int(10))),
		expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(5))),
	)
	res, err := Appraise(tb.Indexes, restriction, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.EmptyRange {
		t.Fatal("contradictory restriction must cancel retrieval")
	}
}

func TestAppraiseExactEmptyRangeDetected(t *testing.T) {
	tb, _, _ := buildTable(t, 5000)
	age := ageCol(t, tb)
	// AGE = 200 is syntactically fine but matches nothing; the descent
	// reaches a leaf and counts zero.
	restriction := expr.NewCmp(expr.EQ, expr.Col(age, "AGE"), expr.Lit(expr.Int(200)))
	res, err := Appraise(tb.Indexes, restriction, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.EmptyRange {
		t.Fatal("exact zero count must cancel retrieval")
	}
}

func TestAppraiseShortRangeShortcut(t *testing.T) {
	tb, _, _ := buildTable(t, 20000)
	idCol, _ := tb.ColumnIndex("ID")
	if _, err := tb.CreateIndex("ID_IX", "ID"); err != nil {
		t.Fatal(err)
	}
	// ID = 7 matches exactly one row; probing ID_IX first (via
	// PreviousOrder) must shortcut before estimating the other indexes.
	restriction := expr.NewCmp(expr.EQ, expr.Col(idCol, "ID"), expr.Lit(expr.Int(7)))
	opts := DefaultOptions()
	opts.PreviousOrder = []string{"ID_IX"}
	res, err := Appraise(tb.Indexes, restriction, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shortcut {
		t.Fatal("point lookup must shortcut estimation")
	}
	if len(res.Estimates) != 1 {
		t.Fatalf("shortcut should stop after 1 estimate, got %d", len(res.Estimates))
	}
	if res.Estimates[0].Index.Name != "ID_IX" {
		t.Fatalf("previous-order probe ignored: %s", res.Estimates[0].Index.Name)
	}
}

func TestAppraiseHostVariableChangesEstimate(t *testing.T) {
	tb, ageIx, _ := buildTable(t, 20000)
	age := ageCol(t, tb)
	restriction := expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Var("A1"))
	// The descent estimator is designed for small ranges; for huge
	// ranges the requirement is only that it clearly signals "big"
	// (so the optimizer prefers Tscan) and preserves ordering.
	sel := func(a1 int64) (float64, bool) {
		res, err := Appraise([]*catalog.Index{ageIx}, restriction, expr.Bindings{"A1": expr.Int(a1)}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.EmptyRange {
			return 0, true
		}
		return min(res.Estimates[0].RIDs/float64(tb.Cardinality()), 1), false
	}
	s0, e0 := sel(0)
	s50, e50 := sel(50)
	s90, e90 := sel(90)
	_, e200 := sel(200)
	if e0 || e50 || e90 {
		t.Fatal("non-empty ranges flagged empty")
	}
	if !e200 {
		t.Fatal("A1=200 must be detected as empty")
	}
	if !(s0 > s50 && s50 > s90) {
		t.Fatalf("selectivities must fall as A1 rises: %v, %v, %v", s0, s50, s90)
	}
	if s0 < 0.4 {
		t.Fatalf("A1=0 selectivity %v should read as 'large'", s0)
	}
	if math.Abs(s90-0.1) > 0.15 {
		t.Fatalf("A1=90 selectivity %v, want ~0.1", s90)
	}
}

func TestAppraiseUnboundParamYieldsFullRange(t *testing.T) {
	tb, ageIx, _ := buildTable(t, 2000)
	age := ageCol(t, tb)
	restriction := expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Var("MISSING"))
	res, err := Appraise([]*catalog.Index{ageIx}, restriction, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0].Sargable != 0 {
		t.Fatal("unbound parameter must not be sargable")
	}
	if res.Estimates[0].Lo != nil || res.Estimates[0].Hi != nil {
		t.Fatal("bounds should be open on both sides")
	}
}

func TestEstimationMuchCheaperThanRetrieval(t *testing.T) {
	tb, _, _ := buildTable(t, 50000)
	age := ageCol(t, tb)
	restriction := expr.NewCmp(expr.GE, expr.Col(age, "AGE"), expr.Lit(expr.Int(10)))
	res, err := Appraise(tb.Indexes, restriction, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Estimation cost is bounded by two edge descents per index,
	// vastly below the table's page count.
	if res.TotalCost > int64(10*len(tb.Indexes)) {
		t.Fatalf("estimation cost %d too high", res.TotalCost)
	}
	if res.TotalCost >= int64(tb.Pages())/10 {
		t.Fatalf("estimation cost %d not small vs table pages %d", res.TotalCost, tb.Pages())
	}
}

func TestCostModelShapes(t *testing.T) {
	m := CostModel{TablePages: 1000, TableRows: 50000, ClusterRatio: 0}
	if m.TscanCost() != 1000 {
		t.Fatalf("Tscan = %v", m.TscanCost())
	}
	// Unclustered, unsorted: ~1 I/O per row.
	if got := m.FetchCost(100, false); math.Abs(got-100) > 1 {
		t.Fatalf("unclustered fetch = %v", got)
	}
	// Sorted RID list: bounded by distinct pages.
	if got := m.FetchCost(500000, true); got > 1001 {
		t.Fatalf("sorted fetch cost %v exceeds table pages", got)
	}
	// Clustered: rows/page cheaper.
	mc := CostModel{TablePages: 1000, TableRows: 50000, ClusterRatio: 1}
	if got := mc.FetchCost(100, false); got > 3 {
		t.Fatalf("clustered fetch = %v", got)
	}
	// Monotonicity of Cardenas estimate.
	if m.DistinctPages(10) >= m.DistinctPages(10000) {
		t.Fatal("DistinctPages must grow")
	}
	if m.DistinctPages(1e9) > 1000.0001 {
		t.Fatal("DistinctPages bounded by table pages")
	}
	// Scan costs include the descent.
	if m.SscanCost(0, 100, 3) < 3 {
		t.Fatal("Sscan must include descent cost")
	}
	if m.FscanCost(100, 100, 3) <= m.SscanCost(100, 100, 3) {
		t.Fatal("Fscan must cost more than Sscan for the same RIDs")
	}
	if m.JscanFinalCost(0) != 0 {
		t.Fatal("empty final stage is free")
	}
}

func TestCostModelClusterRatioClamped(t *testing.T) {
	m := CostModel{TablePages: 100, TableRows: 1000, ClusterRatio: 7}
	if got := m.FetchCost(10, false); got > 10 {
		t.Fatalf("clamped clustered fetch = %v", got)
	}
	m.ClusterRatio = -3
	if got := m.FetchCost(10, false); math.Abs(got-10) > 0.1 {
		t.Fatalf("clamped unclustered fetch = %v", got)
	}
}

func TestAppraiseCorrectionScalesInexactEstimates(t *testing.T) {
	tb, _, _ := buildTable(t, 20000)
	age := ageCol(t, tb)
	// A wide AGE range yields an inexact (extrapolated) estimate on a
	// 20k-row table.
	restriction := expr.NewCmp(expr.LT, expr.Col(age, "AGE"), expr.Lit(expr.Int(50)))
	base, err := Appraise(tb.Indexes, restriction, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var baseAge IndexEstimate
	for _, e := range base.Estimates {
		if e.Index.Name == "AGE_IX" {
			baseAge = e
		}
	}
	if baseAge.Index == nil || baseAge.Exact {
		t.Fatalf("want an inexact AGE_IX estimate, got %+v", baseAge)
	}
	if baseAge.Corrected {
		t.Fatal("no correction requested, estimate flagged corrected")
	}
	opts := DefaultOptions()
	opts.Correction = func(index string) float64 {
		if index == "AGE_IX" {
			return 2
		}
		return 1
	}
	corr, err := Appraise(tb.Indexes, restriction, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corr.Estimates {
		if e.Index.Name != "AGE_IX" {
			if e.Corrected {
				t.Fatalf("%s corrected by neutral factor", e.Index.Name)
			}
			continue
		}
		if !e.Corrected {
			t.Fatal("AGE_IX estimate not flagged corrected")
		}
		if math.Abs(e.RIDs-2*baseAge.RIDs) > 1e-9 {
			t.Fatalf("corrected RIDs = %v, want %v", e.RIDs, 2*baseAge.RIDs)
		}
	}
}

func TestAppraiseCorrectionLeavesExactEstimatesAlone(t *testing.T) {
	tb, _, _ := buildTable(t, 20000)
	cityIdx, _ := tb.ColumnIndex("CITY")
	// CITY = 77 is rare: the edge descent resolves it exactly.
	restriction := expr.NewCmp(expr.EQ, expr.Col(cityIdx, "CITY"), expr.Lit(expr.Int(77)))
	opts := DefaultOptions()
	opts.Correction = func(string) float64 { return 8 }
	res, err := Appraise(tb.Indexes, restriction, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Estimates {
		if e.Exact && e.Corrected {
			t.Fatalf("exact estimate for %s was corrected", e.Index.Name)
		}
	}
}
