// Command rdbbench regenerates the retrieval experiments of the
// reproduction: every table-shaped result from the paper's Sections 3–7
// (see DESIGN.md for the experiment index).
//
// Usage:
//
//	rdbbench -exp all
//	rdbbench -exp hostvar -rows 100000
//	rdbbench -exp jscan
//
// rdbbench -h lists the experiment IDs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"rdbdyn/internal/bench"
)

// runner is one experiment at a table size (0 = its default).
type runner func(rows int) (*bench.Report, error)

// fixed adapts an experiment that has no table size to vary.
func fixed(run func() (*bench.Report, error)) runner {
	return func(int) (*bench.Report, error) { return run() }
}

// runners maps each -exp ID to its experiment; "all" runs bench.All.
var runners = map[string]runner{
	"competition": fixed(bench.CompetitionCosts),
	"hostvar":     bench.HostVariable,
	"estimate":    bench.EstimationStudy,
	"jscan":       bench.JscanStudy,
	"background":  bench.TacticBackground,
	"fastfirst":   bench.TacticFastFirst,
	"sorted":      bench.TacticSorted,
	"indexonly":   bench.TacticIndexOnly,
	"goals":       fixed(bench.GoalInference),
	"hybrid":      fixed(bench.HybridContainer),
	"union":       bench.UnionScan,
	"ablations":   bench.Ablations,
	"interfere":   bench.Interference,
	"histogram":   bench.HistogramBaseline,
	"samplers":    bench.SamplerComparison,
}

// experimentIDs lists what -exp accepts, sorted, "all" last.
func experimentIDs() string {
	ids := make([]string, 0, len(runners)+1)
	for id := range runners {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return strings.Join(append(ids, "all"), "|")
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "rdbbench:", err)
		os.Exit(1)
	}
}

// run is main without the process: it parses args, runs the chosen
// experiment and prints its report to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("rdbbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run ("+experimentIDs()+")")
	rows := fs.Int("rows", 0, "table size for retrieval experiments (0 = experiment default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err != nil {
				return
			}
			var f *os.File
			if f, err = os.Create(*memprofile); err != nil {
				return
			}
			defer f.Close()
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
		}()
	}

	if *exp == "all" {
		reports, err := bench.All()
		if err != nil {
			return err
		}
		for _, r := range reports {
			r.Fprint(stdout)
		}
		return nil
	}
	runExp, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want %s)", *exp, experimentIDs())
	}
	r, err := runExp(*rows)
	if err != nil {
		return err
	}
	r.Fprint(stdout)
	return nil
}
