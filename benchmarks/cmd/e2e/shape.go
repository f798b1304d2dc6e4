package main

import (
	"fmt"
	"strings"
)

// Workload-shape checks: "verify, don't guess, the traffic". A run
// fails, naming the check, when a workload stops stressing the layer it
// exists to stress. They are asserted at full scale only; the tiny
// scale of the smoke test cannot, for one, overflow a pool.

func shapeChecks(tr *timedRun, wr *workloadReport) []shapeCheck {
	if tr.fixture.sc.name != "full" {
		return nil
	}
	var out []shapeCheck
	check := func(name string, ok bool, format string, args ...any) {
		out = append(out, shapeCheck{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	e2e := func(name string) float64 { return wr.EndToEnd[name].Value }
	layer := func(name string) float64 { return wr.PerLayer[name].Value }
	switch tr.fixture.w.name {
	case "oltp_warm":
		// or_union (10 % of the ops) is a Uscan, which the cache never
		// freezes: the ratio is 0.900 less any re-promotion.
		check("plancache_hit_ratio>=0.89", layer("engine.plancache_hit_ratio") >= 0.89,
			"engine.plancache_hit_ratio = %.3f", layer("engine.plancache_hit_ratio"))
		check("sim_io_per_op<0.05", e2e("sim_io_per_op") < 0.05, "sim_io_per_op = %.4f", e2e("sim_io_per_op"))
	case "scan_cold", "scan_par":
		check("sim_io_per_op>100", e2e("sim_io_per_op") > 100, "sim_io_per_op = %.1f", e2e("sim_io_per_op"))
		if tr.fixture.w.name == "scan_par" {
			check("width2_share>0", layer("core.par.width2_share") > 0,
				"core.par.width2_share = %.3f", layer("core.par.width2_share"))
			break
		}
		// Every tactic family of paper sections 4-7 must occur, judged on
		// the "class | tactic | strategy" strings the verify pass collected.
		for _, want := range scanStrategies {
			n := 0
			for s, k := range tr.verify.strategies {
				if want.match(s) {
					n += k
				}
			}
			check("strategy:"+want.name, n > 0, "%d ops", n)
		}
	case "join_mix":
		check("hj_observed", layer("core.join.op_share.hj") > 0, "op_share.hj = %.3f", layer("core.join.op_share.hj"))
		check("inl_observed", layer("core.join.op_share.inl") > 0, "op_share.inl = %.3f", layer("core.join.op_share.inl"))
		check("reopt_per_op>0", layer("core.join.reopt_per_op") > 0, "reopt_per_op = %.4f", layer("core.join.reopt_per_op"))
		check("sort_avoided_ratio>0", layer("core.join.sort_avoided_ratio") > 0,
			"sort_avoided_ratio = %.3f", layer("core.join.sort_avoided_ratio"))
	case "mixed_rw":
		check("plancache_invalidations>0", layer("engine.plancache_invalidations") > 0,
			"engine.plancache_invalidations = %.2f per pass", layer("engine.plancache_invalidations"))
		// Cross-client reads are verified inline; a miss is a failure.
		check("cross_client_misses=0", wr.Failed == 0, "%d failures", wr.Failed)
	}
	return out
}

// strategyWant is one execution shape scan_cold must produce.
type strategyWant struct {
	name  string
	match func(tacticAndStrategy string) bool
}

var scanStrategies = []strategyWant{
	{"jscan_abandoned_into_tscan", func(s string) bool { return strings.Contains(s, "Tscan+Jscan[]") }},
	{"jscan_two_indexes", func(s string) bool {
		return strings.Contains(s, "Jscan[") && strings.Contains(s, ",") && strings.Contains(s, "+Fin")
	}},
	{"jscan_one_index", func(s string) bool {
		return strings.Contains(s, "Jscan[") && !strings.Contains(s, "Jscan[]") && !strings.Contains(s, ",") && strings.Contains(s, "+Fin")
	}},
	{"pure_tscan", func(s string) bool { return strings.HasSuffix(s, "| Tscan") }},
	{"index_only_sscan", func(s string) bool { return strings.Contains(s, "| index-only |") || strings.Contains(s, "| sscan |") }},
	{"sorted_tactic", func(s string) bool { return strings.Contains(s, "| sorted |") || strings.Contains(s, "| sort(") }},
}
