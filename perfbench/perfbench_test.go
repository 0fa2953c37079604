package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(vals, n=4), the method run spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vals        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(med-c.med) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vals, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestServeChurnReaderWriter runs a tiny serve_churn: two open-loop
// readers beside the patching writer, then the cached/uncached sweep and
// the pin check. Run it under -race.
func TestServeChurnReaderWriter(t *testing.T) {
	st, _, err := buildServe(0.01)
	if err != nil {
		t.Fatal(err)
	}
	h := st.srv.Handler()
	wr := startWriter(st, 7, nil)
	d := 3 * writerEvery
	bufs := []*spanBuf{newSpanBuf(now()), newSpanBuf(now())}
	p := st.loadPhase(h, st.sequence(8, 2000*int(d/time.Second+1)), 2000, d, bufs)
	patches, err := wr.stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) == 0 {
		t.Error("writer patched nothing")
	}
	if p.sent == 0 || p.errors != 0 {
		t.Errorf("readers sent %d requests, %d failed", p.sent, p.errors)
	}
	o := newOutcome()
	st.sweep(o)
	for _, m := range o.mismatches {
		t.Error(m)
	}
}

// TestDeclarationsMatchBenchmarkJSON checks the metric and workload
// tables against ../BENCHMARK.json, and that every per-layer metric is
// measured by exactly the workloads whose lists name it: at least one,
// with every listed name declared and none listed twice.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	measured := map[string]bool{}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, bench.Workloads[i].Name, w.name)
		}
		seen := map[string]bool{}
		for _, k := range w.layers {
			if !declared[k] {
				t.Errorf("%s lists undeclared metric %s", w.name, k)
			}
			if seen[k] {
				t.Errorf("%s lists %s twice", w.name, k)
			}
			seen[k] = true
			measured[k] = true
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] {
			t.Errorf("per-layer metric %s is measured by no workload", d.name)
		}
	}
}
