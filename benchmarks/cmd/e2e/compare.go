package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// The A/A comparer. For every (end-to-end metric, workload) pair of two
// report files it prints both values, the relative difference, the
// metric's bound and a verdict:
//
//	ok          b is no worse than a by more than the bound
//	better      b is better than a by more than the bound
//	worse       b is worse than a by more than the bound
//	unresolved  the difference exceeds the bound, but so does the pass
//	            spread recorded in one of the files, so the runs cannot
//	            tell a change from noise
//
// It exits non-zero on any "worse". Run on two reports of the same
// commit and seed it is the repeatability criterion (README, "A/A").

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// verdict judges b against a for one metric.
func verdict(d metricDef, a, b metric) (rel float64, v string) {
	switch {
	case a.Value == b.Value:
		return 0, "ok"
	case a.Value == 0:
		rel = 1
	default:
		rel = (b.Value - a.Value) / a.Value
	}
	worse := rel
	if d.higher {
		worse = -rel
	}
	switch {
	case worse <= d.bound && worse >= -d.bound:
		return rel, "ok"
	case a.Spread > d.bound || b.Spread > d.bound:
		return rel, "unresolved"
	case worse > 0:
		return rel, "worse"
	default:
		return rel, "better"
	}
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := loadReport(pathA)
	b, errB := loadReport(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, errors.Join(errA, errB))
		return 2
	}
	return compareReports(w, a, b)
}

func compareReports(w io.Writer, a, b *report) int {
	var names []string
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\trel.diff\tbound\tspread a/b\tverdict")
	code := 0
	for _, n := range names {
		for _, d := range endToEndDefs {
			ma, mb := a.Workloads[n].EndToEnd[d.name], b.Workloads[n].EndToEnd[d.name]
			rel, v := verdict(d, ma, mb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s [%s]\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.1f%%/%.1f%%\t%s\n",
				n, d.name, d.unit, ma.Value, mb.Value, 100*rel, 100*d.bound, 100*ma.Spread, 100*mb.Spread, v)
		}
	}
	tw.Flush()
	return code
}
