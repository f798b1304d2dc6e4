package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of the root BENCHMARK.json the smoke test
// reads.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// loadBenchmarkJSON reads the committed BENCHMARK.json, which must be
// what `e2e -benchmark-json` prints.
func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, benchmarkJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./benchmarks/cmd/e2e -benchmark-json > BENCHMARK.json`")
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload at the tiny scale with the traced pass
// and the probes. It asserts no timing value: only that every metric
// BENCHMARK.json names is emitted with its unit and is finite, that
// nothing failed, and that the spans nest.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	sc := scales["tiny"]
	rep, traced, err := runSuite(workloads(), 1, sc, runConfig{passes: sc.passes, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(rep.Workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the suite ran %d", len(bj.Workloads), len(rep.Workloads))
	}
	for _, w := range bj.Workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Errorf("workload %s of BENCHMARK.json did not run", w.Name)
			continue
		}
		if wr.Failed != 0 || !wr.correct() {
			t.Errorf("%s: %d failures: %v", w.Name, wr.Failed, wr.Failures)
		}
		if wr.OracleChecked == 0 && w.Name != "mixed_rw" {
			t.Errorf("%s: the oracle checked no op", w.Name)
		}
		check := func(got map[string]metric, name, unit string) {
			m, ok := got[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s is not emitted", w.Name, name)
			case m.Unit != unit:
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s is %v", w.Name, name, m.Value)
			}
		}
		e2e, layers := wr.contract(false).Metrics, wr.contract(true).Metrics
		for _, m := range bj.EndToEnd {
			check(e2e, m.Name, m.Unit)
		}
		for _, m := range bj.PerLayer {
			check(layers, m.Name, m.Unit)
		}
		if len(e2e) != len(bj.EndToEnd) || len(layers) != len(bj.PerLayer) {
			t.Errorf("%s: emits %d end-to-end and %d per-layer metrics, BENCHMARK.json lists %d and %d",
				w.Name, len(e2e), len(layers), len(bj.EndToEnd), len(bj.PerLayer))
		}
	}
	for _, tp := range traced {
		var all []span
		for _, spans := range tp.allSpans() {
			all = append(all, spans...)
		}
		if err := checkNesting(all); err != nil {
			t.Errorf("%s: %v", tp.workload, err)
		}
		if len(tp.probes) == 0 {
			t.Errorf("%s: no probe span recorded", tp.workload)
		}
	}
	// A report is its own A/A baseline.
	if code := compareReports(os.Stderr, rep, rep); code != 0 {
		t.Errorf("comparing a report with itself exits %d", code)
	}
}

func TestOpListHash(t *testing.T) {
	sc := scales["tiny"]
	for _, w := range workloads() {
		a, b, c := newFixture(w, 7, sc).opListHash(), newFixture(w, 7, sc).opListHash(), newFixture(w, 8, sc).opListHash()
		if a != b {
			t.Errorf("%s: seed 7 gives op lists %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 give the same op list %s", w.name, a)
		}
	}
	cold, par := workloadByName("scan_cold"), workloadByName("scan_par")
	if a, b := newFixture(cold, 7, sc).opListHash(), newFixture(par, 7, sc).opListHash(); a != b {
		t.Errorf("scan_cold and scan_par must replay one op list, got %s and %s", a, b)
	}
}

// TestOracleCatchesCorruption feeds checkOracle the reference's own
// rows as the "delivered" result, which must pass, and then corrupts
// the expectation in each way a wrong engine could differ from it.
func TestOracleCatchesCorruption(t *testing.T) {
	sc := scales["tiny"]
	orc := newOracle()
	for _, name := range []string{"oltp_warm", "scan_cold", "join_mix"} {
		fx := newFixture(workloadByName(name), 3, sc)
		checked := 0
		for i := range fx.ops[0] {
			o := &fx.ops[0][i]
			want := orc.eval(o.spec)
			if o.spec.count || want.count < 2 {
				continue
			}
			delivered := func() *rowSink {
				s := &rowSink{}
				for _, row := range want.matches[:want.count] {
					s.hashes = append(s.hashes, hashVals(row))
					if o.orderPos >= 0 {
						s.keys = append(s.keys, row[o.orderPos].i)
					}
				}
				return s
			}
			if err := checkOracle(o, want.count, delivered(), want); err != nil {
				t.Fatalf("%s: the reference disagrees with itself: %v", o.sql, err)
			}
			if err := checkOracle(o, want.count-1, delivered(), want); err == nil {
				t.Errorf("%s: a missing row is not caught", o.sql)
			}
			changed := orc.eval(o.spec)
			changed.matches[0] = append([]val(nil), changed.matches[0]...)
			changed.matches[0][0].i += 1 << 40 // an integer cell...
			changed.matches[0][0].s += "x"     // ...or a string one
			if err := checkOracle(o, want.count, delivered(), changed); err == nil {
				t.Errorf("%s: a corrupted expected row is not caught", o.sql)
			}
			dup := delivered()
			dup.hashes[1] = dup.hashes[0]
			if err := checkOracle(o, want.count, dup, want); err == nil && hashVals(want.matches[0]) != hashVals(want.matches[1]) {
				t.Errorf("%s: a duplicated row is not caught", o.sql)
			}
			if o.orderPos >= 0 && want.matches[0][o.orderPos].i != want.matches[want.count-1][o.orderPos].i {
				rev := delivered()
				for a, b := 0, len(rev.keys)-1; a < b; a, b = a+1, b-1 {
					rev.keys[a], rev.keys[b] = rev.keys[b], rev.keys[a]
				}
				if err := checkOracle(o, want.count, rev, want); err == nil {
					t.Errorf("%s: a wrong ORDER BY sequence is not caught", o.sql)
				}
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no op was eligible", name)
		}
	}
}

func TestNestingCatchesEscapes(t *testing.T) {
	ok := []span{{SpanID: 1, StartNs: 0, EndNs: 100}, {SpanID: 2, ParentID: 1, StartNs: 10, EndNs: 40}, {SpanID: 3, ParentID: 1, StartNs: 40, EndNs: 90}}
	if err := checkNesting(ok); err != nil {
		t.Errorf("well-formed spans rejected: %v", err)
	}
	escape := append([]span(nil), ok...)
	escape[2].EndNs = 120
	if checkNesting(escape) == nil {
		t.Error("a child ending after its parent is not caught")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "op_p50_us", bound: 0.10}
	higher := metricDef{name: "ops_per_s", higher: true, bound: 0.10}
	cases := []struct {
		d    metricDef
		a, b metric
		want string
	}{
		{lower, metric{Value: 100}, metric{Value: 105}, "ok"},
		{lower, metric{Value: 100}, metric{Value: 120}, "worse"},
		{lower, metric{Value: 100}, metric{Value: 80}, "better"},
		{lower, metric{Value: 100, Spread: 0.3}, metric{Value: 120}, "unresolved"},
		{higher, metric{Value: 100}, metric{Value: 80}, "worse"},
		{higher, metric{Value: 100}, metric{Value: 120}, "better"},
		{metricDef{name: "failed_frac"}, metric{}, metric{Value: 0.01}, "worse"},
		{metricDef{name: "failed_frac"}, metric{}, metric{}, "ok"},
	}
	for _, c := range cases {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.d.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "x", "-trace=1", "--seed", "3", "-trace"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
