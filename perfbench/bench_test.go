package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// toySize runs every workload in about a second.
var toySize = sizes{
	approxN:           48,
	smallN:            64,
	largeN:            512,
	ingestN:           64,
	ingestM:           256,
	ingestCycle:       foldEvery + 6, // one fold per cycle
	routedUploadEvery: 10 * time.Millisecond,
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func toyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     3,
		seconds:  time.Second,
		trace:    trace,
		size:     toySize,
		dir:      t.TempDir(),
		spanDir:  t.TempDir(),
	}
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the workloads and
// metric tables the program implements.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the program %s", names, workloadNames())
	}
	check := func(kind string, specs []metricSpec, code []string) {
		var got []string
		for _, m := range specs {
			got = append(got, m.Name)
			if metricUnits[m.Name] != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program unit %q", kind, m.Name, m.Unit, metricUnits[m.Name])
			}
		}
		want := append([]string(nil), code...)
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("%s metrics: BENCHMARK.json %v, program %v", kind, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metrics: BENCHMARK.json %v, program %v", kind, got, want)
				break
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// TestEveryWorkloadPrintsItsMetrics runs every workload at toy size,
// untraced and traced, and checks that each metric BENCHMARK.json names
// is printed with its unit and that every correctness gate passed.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, trace := range []bool{false, true} {
			specs := f.EndToEnd
			if trace {
				specs = f.PerLayer
			}
			res, err := runWorkload(workloads[w.Name], toyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", w.Name, trace, s.Name, m, ok, s.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, s.Name, m.Value)
				}
			}
		}
	}
}

// TestGatesFailTheRun feeds each correctness gate a deliberately wrong
// expectation and checks that the run is reported incorrect.
func TestGatesFailTheRun(t *testing.T) {
	for _, c := range []struct{ workload, sabotage string }{
		{"approx", "approx-ratio"},
		{"approx", "approx-repeat"},
		{"serve_warm", "read-parity"},
		{"routed", "sketch-parity"},
		{"ingest", "upload-digest"},
		{"ingest", "reopen-digest"},
		{"routed", "upload-digest"},
	} {
		cfg := toyConfig(t, c.workload, false)
		cfg.sabotage = c.sabotage
		res, err := runWorkload(workloads[c.workload], cfg)
		if err != nil {
			t.Fatalf("%s with %s: %v", c.workload, c.sabotage, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted %s expectation passed: attempted=%d failed=%d",
				c.workload, c.sabotage, res.Attempted, res.Failed)
		}
	}
}

// TestOpQuantileWindows checks that a windowed phase reports the median
// of its windows' percentiles: one window slowed throughout moves it no
// more than to the next window's value.
func TestOpQuantileWindows(t *testing.T) {
	window := func(base time.Duration) []time.Duration {
		w := make([]time.Duration, 10)
		for i := range w {
			w[i] = base + time.Duration(i)*time.Millisecond
		}
		return w
	}
	p := &phase{windows: [][]time.Duration{window(10 * time.Millisecond), window(20 * time.Millisecond), window(500 * time.Millisecond)}}
	for _, w := range p.windows {
		p.lat = append(p.lat, w...)
	}
	if got := opQuantile(p, 0.9); got != 28 {
		t.Errorf("windowed p90 = %v ms, want 28 (the middle window's)", got)
	}
	if got := opQuantile(p, 0.5); got != 24 {
		t.Errorf("windowed p50 = %v ms, want 24", got)
	}
	p.windows = nil
	if got := opQuantile(p, 0.9); got != 506 {
		t.Errorf("pooled p90 = %v ms, want 506", got)
	}
}
