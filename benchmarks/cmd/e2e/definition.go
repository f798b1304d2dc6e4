package main

import "encoding/json"

// runSeconds is how long the PR driver lets one run measure
// (`--seconds`): 6-9 whole passes on the reference sandbox.
const runSeconds = 12

// benchmarkJSON renders the root BENCHMARK.json from the tables this
// program measures by, so the two cannot disagree; the smoke test
// compares the committed file with it byte for byte. The file has
// exactly the six keys the PR driver's contract prescribes.
func benchmarkJSON() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eDef struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	def := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eDef      `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmarks/cmd/e2e"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		def.Workloads = append(def.Workloads, workloadDef{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		if isContractExtra(d.name) {
			def.PerLayer = append(def.PerLayer, layerDef{d.name, d.unit, better(d)})
		} else {
			def.EndToEnd = append(def.EndToEnd, e2eDef{d.name, d.unit, better(d), d.bound})
		}
	}
	for _, d := range perLayerDefs {
		def.PerLayer = append(def.PerLayer, layerDef{d.name, d.unit, better(d)})
	}
	out, err := json.MarshalIndent(def, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(out, '\n')
}
