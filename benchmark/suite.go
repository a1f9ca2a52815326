package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// declaration is BENCHMARK.json: what the benchmark promises to emit and
// by how much each end-to-end metric may get worse.
type declaration struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Paths) == 0 || d.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: no paths or run_seconds", path)
	}
	return &d, nil
}

// suite runs every workload repeat times, set i on seed+i, untraced and
// traced, and prints every metric by name. With more than one set it
// compares them the way a reviewer would: for each end-to-end metric on
// each workload, how far the sets' values lie apart, as a share of their
// median, against the metric's bound. Two sets give the relative
// difference; four or more give the distance between the quartiles. It
// fails if any operation failed or any spread exceeds its bound.
func suite(decl *declaration, seed int64, seconds, repeat int, outDir string) int {
	values := map[string][]float64{} // "workload metric" -> one value per set
	ok := true
	for i := 0; i < repeat; i++ {
		for _, w := range workloadNames {
			for _, trace := range []bool{false, true} {
				res, env, err := runWorkload(w, seed+int64(i), time.Duration(seconds)*time.Second, trace, fullSizes, outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				printResult(res, env, outDir)
				ok = ok && res.Correct
				if !trace {
					for name, v := range res.Metrics {
						values[w+" "+name] = append(values[w+" "+name], v.Value)
					}
				}
			}
		}
	}
	if repeat > 1 {
		fmt.Printf("\n%-12s %-22s %10s %8s  values\n", "workload", "metric", "spread", "bound")
		for _, w := range workloadNames {
			for _, m := range decl.EndToEnd {
				vs := values[w+" "+m.Name]
				s := spreadOf(vs)
				verdict := ""
				if s > m.Bound && m.Name != "setup_s" { // set-up time gates on medians only
					verdict, ok = "  EXCEEDS BOUND", false
				}
				fmt.Printf("%-12s %-22s %9.2f%% %7.0f%%  %.4g%s\n", w, m.Name, 100*s, 100*m.Bound, vs, verdict)
			}
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED")
		return 1
	}
	return 0
}

// spreadOf is the distance between the first and third quartile as a
// share of the median (quartiles as Python's statistics.quantiles(vs,
// n=4) gives them: the exclusive method), or for fewer than four values
// the distance between smallest and largest.
func spreadOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(len(s)+1)) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / med
}
