package bench

import (
	"strconv"
	"strings"
	"testing"

	"rdbdyn/internal/core"
)

// cellF parses a numeric report cell.
func cellF(t *testing.T, r *Report, row, col int) float64 {
	t.Helper()
	if row >= len(r.Rows) || col >= len(r.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", r.ID, row, col)
	}
	v, err := strconv.ParseFloat(r.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", r.ID, row, col, r.Rows[row][col])
	}
	return v
}

func colIndex(t *testing.T, r *Report, name string) int {
	t.Helper()
	for i, h := range r.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("%s: no column %q in %v", r.ID, name, r.Header)
	return -1
}

func TestFig21Shapes(t *testing.T) {
	r, err := Fig21(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	med := colIndex(t, r, "median")
	// Medians fall along the AND chain (&X, &&X, &&&X are rows 3,4,5).
	if !(cellF(t, r, 3, med) > cellF(t, r, 4, med) && cellF(t, r, 4, med) > cellF(t, r, 5, med)) {
		t.Fatal("AND chain medians must fall")
	}
	sk := colIndex(t, r, "skew")
	// Skew grows as correlation falls (rows 0..2: +1, 0, -0.9).
	if !(cellF(t, r, 0, sk) < cellF(t, r, 1, sk) && cellF(t, r, 1, sk) < cellF(t, r, 2, sk)) {
		t.Fatal("skew must grow as correlation decreases")
	}
	// OR mirrors AND: |X skew = -(&X skew) approximately.
	if cellF(t, r, 3, sk)+cellF(t, r, 6, sk) > 0.01 {
		t.Fatalf("|X must mirror &X: %v vs %v", cellF(t, r, 3, sk), cellF(t, r, 6, sk))
	}
}

func TestFig22Shapes(t *testing.T) {
	r, err := Fig22(256)
	if err != nil {
		t.Fatal(err)
	}
	spread := colIndex(t, r, "spread vs X")
	// One AND inflates the spread by an order of magnitude.
	if cellF(t, r, 1, spread) < 5 {
		t.Fatalf("single AND spread factor = %v", cellF(t, r, 1, spread))
	}
	// Spread grows monotonically along the OR chain (rows 2..4).
	if !(cellF(t, r, 2, spread) < cellF(t, r, 3, spread) && cellF(t, r, 3, spread) < cellF(t, r, 4, spread)) {
		t.Fatal("OR chain must keep spreading")
	}
}

func TestHyperbolaFitShapes(t *testing.T) {
	r, err := HyperbolaFits(256)
	if err != nil {
		t.Fatal(err)
	}
	e := colIndex(t, r, "rel error")
	if !(cellF(t, r, 0, e) > cellF(t, r, 1, e) && cellF(t, r, 1, e) > cellF(t, r, 2, e)) {
		t.Fatal("fit error must fall along the AND chain")
	}
	if cellF(t, r, 0, e) > 0.5 {
		t.Fatalf("&X fit error %v too large", cellF(t, r, 0, e))
	}
}

func TestCompetitionShapes(t *testing.T) {
	r, err := CompetitionCosts()
	if err != nil {
		t.Fatal(err)
	}
	trad := colIndex(t, r, "traditional M1")
	sw := colIndex(t, r, "switch@c2")
	paper := colIndex(t, r, "paper (m2+c2+M1)/2")
	for i := range r.Rows {
		// Switch formula matches the paper's closed form within 10%
		// when the head carries 50% (rows 0-2).
		if i < 3 {
			got, want := cellF(t, r, i, sw), cellF(t, r, i, paper)
			if got/want > 1.1 || want/got > 1.1 {
				t.Fatalf("row %d: switch %v vs paper formula %v", i, got, want)
			}
		}
		// Competition always beats the traditional choice.
		if cellF(t, r, i, sw) >= cellF(t, r, i, trad) {
			t.Fatalf("row %d: switch did not beat traditional", i)
		}
	}
}

func TestHostVariableShapes(t *testing.T) {
	r, err := HostVariable(0)
	if err != nil {
		t.Fatal(err)
	}
	dyn := colIndex(t, r, "dynamic I/O")
	fs := colIndex(t, r, "fixed Fscan I/O")
	ts := colIndex(t, r, "fixed Tscan I/O")
	sn := colIndex(t, r, "frozen-sniffed I/O")
	for i := range r.Rows {
		best := cellF(t, r, i, fs)
		if v := cellF(t, r, i, ts); v < best {
			best = v
		}
		if got := cellF(t, r, i, dyn); got > 3*best+20 {
			t.Fatalf("row %d: dynamic %v strays from best fixed %v", i, got, best)
		}
	}
	// The sniffed frozen plan blows up on the all-rows binding (last row).
	last := len(r.Rows) - 1
	if cellF(t, r, last, sn) < 3*cellF(t, r, last, dyn) {
		t.Fatalf("frozen-sniffed %v should dwarf dynamic %v on A1=0",
			cellF(t, r, last, sn), cellF(t, r, last, dyn))
	}
}

func TestEstimationShapes(t *testing.T) {
	r, err := EstimationStudy(0)
	if err != nil {
		t.Fatal(err)
	}
	truth := colIndex(t, r, "truth")
	desc := colIndex(t, r, "descent k*f^(l-1)")
	cost := colIndex(t, r, "descent I/O")
	scan := colIndex(t, r, "Tscan I/O equivalent")
	for i := range r.Rows {
		// Estimation is far cheaper than scanning.
		if cellF(t, r, i, cost) > cellF(t, r, i, scan)/10 {
			t.Fatalf("row %d: estimation cost %v not small vs scan %v",
				i, cellF(t, r, i, cost), cellF(t, r, i, scan))
		}
		// The descent stays within an order of magnitude.
		tr, d := cellF(t, r, i, truth), cellF(t, r, i, desc)
		if tr > 0 && (d > 10*tr || d < tr/10) {
			t.Fatalf("row %d: descent %v vs truth %v off by >10x", i, d, tr)
		}
	}
}

func TestJscanShapes(t *testing.T) {
	r, err := JscanStudy(0)
	if err != nil {
		t.Fatal(err)
	}
	io := colIndex(t, r, "I/O")
	rows := colIndex(t, r, "rows")
	// Every executor returns the same row count.
	want := cellF(t, r, 0, rows)
	for i := range r.Rows {
		if cellF(t, r, i, rows) != want {
			t.Fatalf("row %d: row count %v != %v", i, cellF(t, r, i, rows), want)
		}
	}
	// dynamic (row 0) <= static thresholds (row 1) <= no competition may
	// vary, but dynamic must beat static clearly on this workload.
	if cellF(t, r, 0, io) >= cellF(t, r, 1, io) {
		t.Fatalf("dynamic %v did not beat static thresholds %v",
			cellF(t, r, 0, io), cellF(t, r, 1, io))
	}
}

func TestTacticBackgroundShapes(t *testing.T) {
	r, err := TacticBackground(0)
	if err != nil {
		t.Fatal(err)
	}
	dyn := colIndex(t, r, "dynamic I/O")
	fs := colIndex(t, r, "fixed Fscan I/O")
	ts := colIndex(t, r, "fixed Tscan I/O")
	for i := range r.Rows {
		best := cellF(t, r, i, fs)
		if v := cellF(t, r, i, ts); v < best {
			best = v
		}
		if got := cellF(t, r, i, dyn); got > 2*best+30 {
			t.Fatalf("row %d: dynamic %v strays from best %v", i, got, best)
		}
	}
	// At the unselective end, fixed Fscan must be far worse than dynamic.
	last := len(r.Rows) - 1
	if cellF(t, r, last, fs) < 3*cellF(t, r, last, dyn) {
		t.Fatal("Fscan should blow up at the unselective end")
	}
}

func TestTacticFastFirstShapes(t *testing.T) {
	r, err := TacticFastFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	ff := colIndex(t, r, "fast-first I/O")
	fs := colIndex(t, r, "fixed Fscan I/O")
	// Drained to the end (last row), fast-first must clearly beat the
	// Fscan random-fetch blowup.
	last := len(r.Rows) - 1
	if cellF(t, r, last, ff) > cellF(t, r, last, fs)/2 {
		t.Fatalf("fast-first full drain %v vs Fscan %v", cellF(t, r, last, ff), cellF(t, r, last, fs))
	}
	// At limit 1 it stays within a small constant of Fscan.
	if cellF(t, r, 0, ff) > cellF(t, r, 0, fs)+50 {
		t.Fatalf("fast-first early %v vs Fscan %v", cellF(t, r, 0, ff), cellF(t, r, 0, fs))
	}
}

func TestTacticSortedShapes(t *testing.T) {
	r, err := TacticSorted(0)
	if err != nil {
		t.Fatal(err)
	}
	so := colIndex(t, r, "sorted tactic I/O")
	fs := colIndex(t, r, "plain Fscan I/O")
	// At the most selective filter (row 0) the cooperation saves most
	// fetches.
	if cellF(t, r, 0, so) > cellF(t, r, 0, fs)/3 {
		t.Fatalf("sorted tactic %v vs plain Fscan %v", cellF(t, r, 0, so), cellF(t, r, 0, fs))
	}
	// It never costs much more than the plain Fscan.
	for i := range r.Rows {
		if cellF(t, r, i, so) > cellF(t, r, i, fs)*1.2+30 {
			t.Fatalf("row %d: sorted tactic %v overshoots Fscan %v",
				i, cellF(t, r, i, so), cellF(t, r, i, fs))
		}
	}
}

func TestTacticIndexOnlyShapes(t *testing.T) {
	r, err := TacticIndexOnly(0)
	if err != nil {
		t.Fatal(err)
	}
	dyn := colIndex(t, r, "dynamic I/O")
	ss := colIndex(t, r, "pure Sscan I/O")
	ts := colIndex(t, r, "Tscan I/O")
	for i := range r.Rows {
		best := cellF(t, r, i, ss)
		if v := cellF(t, r, i, ts); v < best {
			best = v
		}
		if got := cellF(t, r, i, dyn); got > 3*best+30 {
			t.Fatalf("row %d: dynamic %v strays from best %v", i, got, best)
		}
	}
}

func TestGoalInferenceReport(t *testing.T) {
	r, err := GoalInference()
	if err != nil {
		t.Fatal(err)
	}
	wantGoals := []string{"FAST FIRST", "TOTAL TIME", "TOTAL TIME", "TOTAL TIME", "FAST FIRST", "TOTAL TIME", "FAST FIRST"}
	if len(r.Rows) != len(wantGoals) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i, want := range wantGoals {
		if got := r.Rows[i][2]; got != want {
			t.Fatalf("row %d (%s): goal %q, want %q", i, r.Rows[i][0], got, want)
		}
	}
}

func TestHybridContainerShapes(t *testing.T) {
	r, err := HybridContainer()
	if err != nil {
		t.Fatal(err)
	}
	spilled := colIndex(t, r, "spilled")
	for _, row := range r.Rows {
		size, _ := strconv.Atoi(row[0])
		cfg := row[1]
		sp := row[spilled] == "true"
		switch {
		case cfg == "always-allocate" && sp:
			t.Fatalf("always-allocate spilled at size %d", size)
		case strings.HasPrefix(cfg, "hybrid") && size <= 20 && sp:
			t.Fatalf("hybrid spilled a tiny list (%d)", size)
		case strings.HasPrefix(cfg, "hybrid") && size >= 50000 && !sp:
			t.Fatalf("hybrid failed to spill a huge list (%d)", size)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "X", Title: "t", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Notef("note %d", 7)
	var sb strings.Builder
	r.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== X: t ==", "a", "bb", "note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestUnionScanShapes(t *testing.T) {
	r, err := UnionScan(0)
	if err != nil {
		t.Fatal(err)
	}
	dyn := colIndex(t, r, "dynamic I/O")
	ts := colIndex(t, r, "fixed Tscan I/O")
	// The thinnest union (row 0) beats Tscan clearly.
	if cellF(t, r, 0, dyn) > cellF(t, r, 0, ts)/2 {
		t.Fatalf("thin union %v vs Tscan %v", cellF(t, r, 0, dyn), cellF(t, r, 0, ts))
	}
	// The widest union (last row) abandons and stays near Tscan.
	last := len(r.Rows) - 1
	if cellF(t, r, last, dyn) > cellF(t, r, last, ts)*1.2 {
		t.Fatalf("wide union %v should abandon to ~Tscan %v", cellF(t, r, last, dyn), cellF(t, r, last, ts))
	}
	if !strings.Contains(r.Rows[last][5], "Tscan") {
		t.Fatalf("wide union strategy %q should include Tscan", r.Rows[last][5])
	}
}

func TestAblationsShapes(t *testing.T) {
	r, err := Ablations(0)
	if err != nil {
		t.Fatal(err)
	}
	cor := colIndex(t, r, "correlated I/O")
	// The default (row 0) must beat no-competition (last row) on the
	// correlated workload.
	last := len(r.Rows) - 1
	if r.Rows[last][0] != "no competition at all" {
		t.Fatalf("unexpected last config %q", r.Rows[last][0])
	}
	if cellF(t, r, 0, cor) >= cellF(t, r, last, cor) {
		t.Fatalf("default %v did not beat no-competition %v",
			cellF(t, r, 0, cor), cellF(t, r, last, cor))
	}
	// The aggressive threshold changes the borderline strategy.
	if r.Rows[1][4] == r.Rows[0][4] {
		t.Fatalf("aggressive threshold should flip the borderline strategy: %q", r.Rows[1][4])
	}
}

// TestAblationsMoveTheirKnob: every ablation row, once the optimizer
// has merged in its defaults, differs from the default row in the knob
// the row names — a knob set to its "use the default" zero would run
// the default under another label.
func TestAblationsMoveTheirKnob(t *testing.T) {
	knobs := map[string]func(core.Config) any{
		"aggressive switch (0.50)": func(c core.Config) any { return c.Criterion.Threshold },
		"timid switch (0.999)":     func(c core.Config) any { return c.Criterion.Threshold },
		"tight scan limit (0.1)":   func(c core.Config) any { return c.Criterion.ScanCostFrac },
		"no pair racing":           func(c core.Config) any { return c.RaceFactor > 0 },
		"no short-range shortcut":  func(c core.Config) any { return c.ShortRange },
		"no competition at all":    func(c core.Config) any { return c.DisableCompetition },
	}
	effective := func(c core.Config) core.Config { return core.NewOptimizer(c).Config() }
	rows := ablationConfigs()
	def := effective(rows[0].cfg)
	for _, a := range rows[1:] {
		knob, ok := knobs[a.name]
		if !ok {
			t.Fatalf("ablation %q names no knob this test knows", a.name)
		}
		if got, want := knob(effective(a.cfg)), knob(def); got == want {
			t.Fatalf("ablation %q runs with its knob at the default's %v", a.name, want)
		}
	}
}

func TestInterferenceShapes(t *testing.T) {
	r, err := Interference(0)
	if err != nil {
		t.Fatal(err)
	}
	v := colIndex(t, r, "victim I/O")
	solo, mixed := cellF(t, r, 0, v), cellF(t, r, 1, v)
	if mixed <= solo {
		t.Fatalf("interleaving must raise the victim's cost: solo %v, mixed %v", solo, mixed)
	}
}

func TestHistogramBaselineShapes(t *testing.T) {
	r, err := HistogramBaseline(50000)
	if err != nil {
		t.Fatal(err)
	}
	truth := colIndex(t, r, "truth")
	desc := colIndex(t, r, "descent")
	hist := colIndex(t, r, "histogram-100")
	// Zipf hot point (row 3): descent within 2x of truth, histogram
	// off by more than 10x.
	tr := cellF(t, r, 3, truth)
	if d := cellF(t, r, 3, desc); d < tr/2 || d > tr*2 {
		t.Fatalf("descent on the spike: %v vs truth %v", d, tr)
	}
	if h := cellF(t, r, 3, hist); h > tr/10 {
		t.Fatalf("histogram should miss the spike: %v vs truth %v", h, tr)
	}
	// Descent probes stay ~tree-height; the build scans every leaf.
	cost := colIndex(t, r, "descent I/O")
	build := colIndex(t, r, "hist build I/O")
	if cellF(t, r, 0, cost)*10 > cellF(t, r, 0, build) {
		t.Fatalf("descent %v not far below build %v", cellF(t, r, 0, cost), cellF(t, r, 0, build))
	}
}

func TestSamplerComparisonShapes(t *testing.T) {
	r, err := SamplerComparison(50000)
	if err != nil {
		t.Fatal(err)
	}
	ranked := colIndex(t, r, "ranked node visits")
	ar := colIndex(t, r, "A/R node visits")
	for i := range r.Rows {
		if cellF(t, r, i, ranked)*10 > cellF(t, r, i, ar) {
			t.Fatalf("row %d: ranked %v not far below A/R %v",
				i, cellF(t, r, i, ranked), cellF(t, r, i, ar))
		}
	}
}
