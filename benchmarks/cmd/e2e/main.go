// Command e2e is the repository's end-to-end benchmark: five workloads
// driven through engine.DB.QueryContext, checked against an independent
// oracle, measured in wall-clock, simulated I/O and allocations, with
// per-layer probes and an optional traced run. See ../../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runConfig says how much to measure.
type runConfig struct {
	passes  int           // timed passes, when seconds is 0
	seconds time.Duration // when > 0: whole passes until this much time is measured
	trace   bool
}

// With -seconds, at least minPasses run (the best-pass and spread
// statistics need them) and at most maxPasses.
const (
	minPasses = 3
	maxPasses = 100
)

// enough reports whether p timed passes that took measured in total
// complete the run.
func (c runConfig) enough(p int, measured time.Duration) bool {
	if c.seconds == 0 {
		return p >= c.passes
	}
	return p >= minPasses && (measured >= c.seconds || p >= maxPasses)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// normalizeTrace lets -trace be given bare (the ISSUE's form) or with a
// 0/1 value as a separate argument (the PR driver's form).
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// runSuite runs the workloads in order and assembles the report. The
// traced passes are returned for the span file.
func runSuite(todo []*workload, seed int64, sc scale, cfg runConfig) (*report, []*tracedPass, error) {
	rep := &report{
		Env: map[string]any{"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"seed": seed, "scale": sc.name, "trace": cfg.trace},
		Workloads: map[string]*workloadReport{},
	}
	var spans []*tracedPass
	for _, w := range todo {
		fmt.Fprintf(os.Stderr, "%s: generating, building, verifying, measuring...\n", w.name)
		fails := &failures{}
		tr, err := runWorkload(newFixture(w, seed, sc), cfg, fails)
		if err != nil {
			return nil, nil, err
		}
		var pr *probeResult
		if tr.traced != nil {
			pr = runProbes(tr, sc, fails)
			spans = append(spans, tr.traced)
		}
		rep.Workloads[w.name] = buildReport(tr, fails, pr)
	}
	if a, b := rep.Workloads["scan_cold"], rep.Workloads["scan_par"]; a != nil && b != nil {
		b.PerLayer[speedupMetric] = metric{Unit: "ratio",
			Value: ratio(b.EndToEnd["ops_per_s"].Value, a.EndToEnd["ops_per_s"].Value)}
	}
	return rep, spans, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the generated data and operations")
	only := fs.String("workload", "", "run one workload and print its result as one JSON line (default: all, full report)")
	trace := fs.Bool("trace", false, "add a traced pass and the layer probes")
	traceOut := fs.String("trace-out", "", "write the spans of the traced pass as JSON lines to this file")
	outPath := fs.String("out", "", "also write the full report to this file")
	scaleName := fs.String("scale", "full", "tiny or full")
	seconds := fs.Int("seconds", 0, "measure whole passes for about this long instead of a fixed pass count")
	compare := fs.Bool("compare", false, "compare two report files: -compare a.json b.json")
	printDef := fs.Bool("benchmark-json", false, "print the contents of the root BENCHMARK.json and exit")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if *printDef {
		os.Stdout.Write(benchmarkJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: e2e -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -scale %q\n", *scaleName)
		return 2
	}
	var todo []*workload
	if *only == "" {
		todo = workloads()
	} else if w := workloadByName(*only); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown -workload %q\n", *only)
		return 2
	}
	cfg := runConfig{passes: sc.passes, seconds: time.Duration(*seconds) * time.Second, trace: *trace}

	rep, spans, err := runSuite(todo, *seed, sc, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	names := make([]string, len(todo))
	for i, w := range todo {
		names[i] = w.name
	}
	rep.writeTable(os.Stderr, names)

	if *traceOut != "" {
		if err := writeSpanFile(*traceOut, spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(full, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *only != "" {
		line, err := json.Marshal(rep.Workloads[*only].contract(*trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(line))
	} else {
		fmt.Println(string(full))
	}
	for _, n := range names {
		if !rep.Workloads[n].correct() {
			return 1
		}
	}
	return 0
}
