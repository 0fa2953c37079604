// Command perfbench is the repository benchmark: it runs one workload of
// the reproduction end to end (see README.md for why each exists), checks
// that the outputs are correct, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set BENCHMARK.json declares;
// with -trace 1 the run is traced instead and the metrics are the per-layer
// set, measured by timing calls into each module's public functions from
// this package. The program under test carries no tracing of its own.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload scan_full|survey|serve_churn|observe|all \
//	    [--seed 42] [--seconds 20] [--trace 0|1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workload is one benchmark workload: run executes it for about seconds
// of measurement and returns what it measured. layers names the per-layer
// metrics its traced pass measures (see layers.go).
type workload struct {
	name   string
	run    func(cfg runConfig) (*outcome, error)
	layers []string
}

var workloads = []workload{
	{"scan_full", runScanFull, scanLayers},
	{"survey", runSurvey, surveyLayers},
	{"serve_churn", runServeChurn, serveLayers},
	{"observe", runObserve, observeLayers},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// traceDir receives the span files of traced runs, relative to the
// repository root.
const traceDir = ".bench_build/trace"

func main() {
	name := flag.String("workload", "", "workload: scan_full, survey, serve_churn, observe or all")
	seed := flag.Int64("seed", 42, "workload seed (world seed and request-mix seed)")
	seconds := flag.Float64("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fail("-seconds must be positive")
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fail(fmt.Sprintf("unknown workload %q", *name))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}

	prov, err := provenance(cfg)
	if err != nil {
		fail(err.Error())
	}
	printJSONLine("provenance", prov)

	// The golden gate runs first on every invocation: the whole suite at
	// the test configuration must reproduce the committed transcript.
	if err := checkGolden(); err != nil {
		fail(err.Error())
	}
	fmt.Println("# gate golden_experiments_seed74: ok")

	for _, w := range selected {
		out, err := w.run(cfg)
		if err != nil {
			fail(fmt.Sprintf("%s: %v", w.name, err))
		}
		out.print(w, cfg.trace)
		if len(out.mismatches) > 0 {
			os.Exit(1)
		}
	}
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int
	failed    int
	// metrics are the reported values: the end-to-end set, or with
	// tracing the per-layer set.
	metrics map[string]metric
	// named are the workload-specific end-to-end figures README.md names
	// (scan.hosts_per_s, serve.p99_us.r20k, ...), printed for people.
	named map[string]metric
	// raw keeps every repetition's value of each repeated measurement.
	raw map[string][]float64
	// digests are the output digests the run checked.
	digests map[string]string
	// mismatches describes every failed correctness check; a run with
	// none is correct.
	mismatches []string
}

func newOutcome() *outcome {
	return &outcome{
		metrics: map[string]metric{},
		named:   map[string]metric{},
		raw:     map[string][]float64{},
		digests: map[string]string{},
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// mismatch records a failed correctness check.
func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// checkDigest compares a run's output digest with the value recorded for
// the default seed, and records it for the log.
func (o *outcome) checkDigest(key, got string, seed int64) {
	if prev, ok := o.digests[key]; ok && prev != got {
		o.mismatch("%s digest changed between repetitions: %s then %s", key, prev, got)
	}
	o.digests[key] = got
	if seed != defaultSeed {
		return
	}
	if want, ok := recordedDigests[key]; ok && want != got {
		o.mismatch("%s digest %s, recorded seed-%d value %s", key, got, defaultSeed, want)
	}
}

// print writes the human-readable lines and, last, the result object.
// An untraced run must measure exactly the end-to-end set, and a traced
// run exactly its workload's per-layer list; the per-layer metrics of
// layers the workload does not exercise read 0.
func (o *outcome) print(w workload, traced bool) {
	name := w.name
	for _, k := range sortedKeys(o.raw) {
		vals := o.raw[k]
		q1, med, q3 := quartiles(vals)
		fmt.Printf("# raw %s %s n=%d median=%.6g q1=%.6g q3=%.6g values=%s\n",
			name, k, len(vals), med, q1, q3, formatFloats(vals))
	}
	for _, k := range sortedKeys(o.named) {
		m := o.named[k]
		fmt.Printf("# metric %s %s = %.6g %s\n", name, k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(o.digests) {
		fmt.Printf("# digest %s %s %s\n", name, k, o.digests[k])
	}
	want, owned := endToEnd, map[string]bool{}
	for _, def := range endToEnd {
		owned[def.name] = true
	}
	if traced {
		want, owned = perLayer, map[string]bool{}
		for _, k := range w.layers {
			owned[k] = true
		}
	}
	declared := map[string]bool{}
	for _, def := range want {
		declared[def.name] = true
	}
	for _, k := range sortedKeys(o.metrics) {
		switch {
		case !declared[k]:
			o.mismatch("metric %s is not declared in BENCHMARK.json", k)
		case !owned[k]:
			o.mismatch("metric %s measured but not listed for %s", k, name)
		}
	}
	metrics := make(map[string]metric, len(want))
	for _, def := range want {
		m, ok := o.metrics[def.name]
		switch {
		case !ok && !owned[def.name]:
			m = metric{0, def.unit} // layer not exercised by this workload
		case !ok:
			o.mismatch("metric %s not measured", def.name)
		case m.Unit != def.unit:
			o.mismatch("metric %s measured in %s, declared in %s", def.name, m.Unit, def.unit)
		}
		metrics[def.name] = m
	}
	kind := "e2e"
	if traced {
		kind = "layer"
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("# %s %s %s = %.6g %s\n", kind, name, k, metrics[k].Value, metrics[k].Unit)
	}
	for _, m := range o.mismatches {
		fmt.Printf("# MISMATCH %s %s\n", name, m)
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.mismatches) == 0, attempted, o.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(b))
}

func printJSONLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err.Error())
	}
	fmt.Printf("# %s %s\n", label, b)
}

func formatFloats(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.6g", v)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(1)
}
