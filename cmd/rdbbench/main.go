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
// Experiment IDs: competition, hostvar, estimate, jscan, background,
// fastfirst, sorted, indexonly, goals, hybrid, all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rdbdyn/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (competition|hostvar|estimate|jscan|background|fastfirst|sorted|indexonly|goals|hybrid|union|ablations|interfere|histogram|samplers|all)")
	rows := flag.Int("rows", 0, "table size for retrieval experiments (0 = experiment default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchout := flag.String("benchout", "", "run the vectorized-pipeline microbenchmarks and write JSON results to this file (e.g. BENCH_pipeline.json)")
	cache := flag.Bool("cache", false, "run the plan-cache warm-vs-cold benchmark and write BENCH_cache.json")
	join := flag.Bool("join", false, "run the static-vs-dynamic join benchmark and write BENCH_join.json")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if *benchout != "" {
		rep, err := bench.RunPipeline()
		writeJSON(*benchout, rep, err)
		return
	}
	if *cache {
		res, err := bench.RunCacheBench(*rows)
		writeJSON("BENCH_cache.json", res, err)
		return
	}
	if *join {
		res, err := bench.RunJoinBench(*rows)
		writeJSON("BENCH_join.json", res, err)
		return
	}

	runners := map[string]func() (*bench.Report, error){
		"competition": bench.CompetitionCosts,
		"hostvar":     func() (*bench.Report, error) { return bench.HostVariable(*rows) },
		"estimate":    func() (*bench.Report, error) { return bench.EstimationStudy(*rows) },
		"jscan":       func() (*bench.Report, error) { return bench.JscanStudy(*rows) },
		"background":  func() (*bench.Report, error) { return bench.TacticBackground(*rows) },
		"fastfirst":   func() (*bench.Report, error) { return bench.TacticFastFirst(*rows) },
		"sorted":      func() (*bench.Report, error) { return bench.TacticSorted(*rows) },
		"indexonly":   func() (*bench.Report, error) { return bench.TacticIndexOnly(*rows) },
		"goals":       bench.GoalInference,
		"hybrid":      bench.HybridContainer,
		"union":       func() (*bench.Report, error) { return bench.UnionScan(*rows) },
		"ablations":   func() (*bench.Report, error) { return bench.Ablations(*rows) },
		"interfere":   func() (*bench.Report, error) { return bench.Interference(*rows) },
		"histogram":   func() (*bench.Report, error) { return bench.HistogramBaseline(*rows) },
		"samplers":    func() (*bench.Report, error) { return bench.SamplerComparison(*rows) },
	}
	if *exp == "all" {
		reports, err := bench.All()
		if err != nil {
			fail(err)
		}
		for _, r := range reports {
			r.Fprint(os.Stdout)
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fail(fmt.Errorf("unknown experiment %q", *exp))
	}
	r, err := run()
	if err != nil {
		fail(err)
	}
	r.Fprint(os.Stdout)
}

// writeJSON writes a benchmark report (or fails on its error) as
// indented JSON to path and echoes it to stdout.
func writeJSON(path string, report any, err error) {
	if err != nil {
		fail(err)
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fail(err)
	}
	os.Stdout.Write(out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rdbbench:", err)
	os.Exit(1)
}
