package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads: the
// bound of every end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds finds BENCHMARK.json in the working directory or its
// parent (the benchmark is run from the repository root or from bench/).
func loadBounds() (map[string]float64, error) {
	var js []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if js, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(js, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// suiteResults is a -selfcheck result file: every end-to-end value of
// every run, by workload and metric.
type suiteResults struct {
	Host    fingerprint                     `json:"host"`
	Seconds float64                         `json:"seconds"`
	Runs    map[string]map[string][]float64 `json:"runs"`
}

// quartiles returns the first quartile, the median and the third
// quartile of v as Python's statistics.quantiles(v, n=4) computes them
// (the "exclusive" method), which is what the spread rule is stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// selfCheck runs the whole suite n times on unchanged code, each time
// with another seed, and fails if the interquartile spread of any
// workload × end-to-end metric exceeds the metric's bound.
func selfCheck(n int, seed int64, seconds float64, dir, out string) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	res := suiteResults{Host: hostFingerprint(), Seconds: seconds, Runs: map[string]map[string][]float64{}}
	for i := 0; i < n; i++ {
		for _, sp := range specs {
			r, err := runChild(sp.name, seed+int64(i), seconds, false, dir, nil)
			if err != nil {
				return err
			}
			if res.Runs[sp.name] == nil {
				res.Runs[sp.name] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				res.Runs[sp.name][name] = append(res.Runs[sp.name][name], m.Value)
			}
			fmt.Printf("# run %d/%d %s done\n", i+1, n, sp.name)
		}
	}
	if out != "" {
		js, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, js, 0o644); err != nil {
			return err
		}
	}
	return reportSpread(res, bounds)
}

// reportSpread prints the repeatability table and fails on a spread
// beyond its bound. setup_s is listed but not gated on its spread: its
// gate is the comparison of medians.
func reportSpread(res suiteResults, bounds map[string]float64) error {
	fmt.Printf("%-12s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	var errs []error
	for _, sp := range specs {
		for _, m := range endToEnd {
			v := res.Runs[sp.name][m.name]
			q1, q2, q3 := quartiles(v)
			spread := ratio(q3-q1, q2)
			mark := ""
			if spread > bounds[m.name] && m.name != "setup_s" {
				mark = "  EXCEEDS"
				errs = append(errs, fmt.Errorf("%s %s: spread %.1f%% exceeds bound %.0f%%", sp.name, m.name, 100*spread, 100*bounds[m.name]))
			}
			fmt.Printf("%-12s %-14s %12.4f %12.4f %12.4f %7.2f%% %5.0f%%%s\n", sp.name, m.name, q2, q1, q3, 100*spread, 100*bounds[m.name], mark)
		}
	}
	return errors.Join(errs...)
}

// compareFiles fails if the medians of two result files differ by more
// than the bound on any workload × end-to-end metric.
func compareFiles(pathA, pathB string) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	var a, b suiteResults
	for _, f := range []struct {
		path string
		into *suiteResults
	}{{pathA, &a}, {pathB, &b}} {
		js, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(js, f.into); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Printf("%-12s %-14s %12s %12s %8s %6s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	var errs []error
	for _, sp := range specs {
		for _, m := range endToEnd {
			_, ma, _ := quartiles(a.Runs[sp.name][m.name])
			_, mbv, _ := quartiles(b.Runs[sp.name][m.name])
			diff := ratio(mbv-ma, ma)
			mark := ""
			if math.Abs(diff) > bounds[m.name] {
				mark = "  EXCEEDS"
				errs = append(errs, fmt.Errorf("%s %s: medians differ by %.1f%%, bound %.0f%%", sp.name, m.name, 100*diff, 100*bounds[m.name]))
			}
			fmt.Printf("%-12s %-14s %12.4f %12.4f %+7.2f%% %5.0f%%%s\n", sp.name, m.name, ma, mbv, 100*diff, 100*bounds[m.name], mark)
		}
	}
	return errors.Join(errs...)
}
