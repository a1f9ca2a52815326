package main

import (
	"os"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary play the child's part, as the benchmark
// binary does.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

var toySizes = sizes{
	rows:       map[string]int{wPointRead: 2000, wScan: 2000, wOLTPWrite: 2000, wRestart: 2000},
	warmOps:    map[string]int{wPointRead: 50, wScan: 2, wOLTPWrite: 20, wRestart: 1},
	trials:     1,
	cycles:     1,
	minCycles:  2,
	sample:     20,
	smallDiv:   10,
	shadowRows: 200,
	shadowCuts: 3,
}

// TestSmoke runs every workload, untraced and traced, at toy scale, and
// holds the benchmark to its declaration: the workloads and metrics it
// emits are exactly those BENCHMARK.json names, with the same units, and
// nothing fails.
func TestSmoke(t *testing.T) {
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloadNames))
	}
	out := t.TempDir()
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
			continue
		}
		for _, trace := range []bool{false, true} {
			declared := decl.EndToEnd
			if trace {
				declared = decl.PerLayer
			}
			res, _, err := runWorkload(w.Name, 1, 300*time.Millisecond, trace, toySizes, out)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d failed of %d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := res.Metrics[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s was not emitted", w.Name, trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, d.Name, got.Unit, d.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, d.Name, got.Value)
				}
			}
			if trace {
				if v := res.Metrics["shadow.violations"].Value; v != 0 {
					t.Errorf("%s: %v shadow violations", w.Name, v)
				}
				if _, err := os.Stat(out + "/trace-" + w.Name + ".jsonl"); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}
