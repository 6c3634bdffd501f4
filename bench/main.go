// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics and a ladder of per-layer metrics, described in
// BENCHMARK.json at the repository root and in bench/README.md.
//
//	bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-dir D]
//
// runs one workload in this process and prints every metric by name
// with its unit, then one JSON object on the last line. Without
// -workload it runs all four, each in a child process of its own so CPU
// time and peak RSS never bleed between workloads. -selfcheck N repeats
// the suite and checks its own repeatability; -compare A B checks two
// result files against each other.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runJSON is the last line of a single-workload run: the contract with
// whatever drives the benchmark.
type runJSON struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// traceArg lets -trace stand alone as well as take 0 or 1: the flag
// package's boolean flags cannot take a separate argument.
func traceArg(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
				out = append(out, "1")
			}
		}
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "seed of the precomputed input streams")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: the traced run (driver spans, engine recorder, layer ladder, algorithm sweep), reporting the per-layer metrics")
	dir := fs.String("dir", ".bench_build", "work directory: databases (removed again), traces and the untraced baselines live here")
	selfcheck := fs.Int("selfcheck", 0, "run the suite this many times and check the spread of every end-to-end metric against its bound")
	out := fs.String("out", "", "with -selfcheck: also write the results to this file")
	compare := fs.Bool("compare", false, "compare the medians of two -selfcheck result files given as arguments")
	if err := fs.Parse(traceArg(args)); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *selfcheck > 0:
		return selfCheck(*selfcheck, *seed, *seconds, *dir, *out)
	case *workload == "":
		return runAll(*seed, *seconds, *trace == 1, *dir)
	}
	sp, ok := findSpec(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *trace == 1, dir: *dir, scale: fullScale}
	return runOne(sp, opt)
}

// runOne runs one workload in this process and prints its report.
func runOne(sp spec, opt options) error {
	fp := hostFingerprint()
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		sp.name, opt.seed, opt.seconds, opt.traced, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)

	var tr *tracer
	if opt.traced {
		tr = newTracer()
	}
	res, err := runWorkload(sp, opt, tr)
	if err != nil {
		return err
	}
	reported := res.endToEnd
	if opt.traced {
		extra, err := tracedExtras(sp, opt, res, tr)
		if err != nil {
			return err
		}
		res.perLayer = append(res.perLayer, extra...)
		reported = res.perLayer
		path := filepath.Join(opt.dir, "trace-"+sp.name+".json")
		if err := tr.writeChrome(path); err != nil {
			return err
		}
		fmt.Printf("# chrome trace: %s\n", path)
	}

	for _, m := range res.endToEnd {
		fmt.Printf("%-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if opt.traced {
		for _, m := range res.perLayer {
			fmt.Printf("%-32s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Printf("%-32s %14d count\n", "ops_attempted", res.attempted)
	fmt.Printf("%-32s %14d count\n", "ops_failed", res.failed)
	fmt.Printf("%-32s %14d count (of %d checked)\n", "verify_failed", res.verifyFailed, res.verified)
	if res.firstErr != nil {
		fmt.Printf("# first op error: %v\n", res.firstErr)
	}

	line := runJSON{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricVal{}}
	for _, m := range reported {
		line.Metrics[m.name] = metricVal{m.value, m.unit}
	}
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if !opt.traced {
		if err := os.WriteFile(baselinePath(opt.dir, sp.name), js, 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(js))
	if !res.correct() {
		return fmt.Errorf("%s: %d ops failed, %d of %d verified values wrong", sp.name, res.failed, res.verifyFailed, res.verified)
	}
	return nil
}

// baselinePath is where an untraced run leaves its result line for a
// later traced run of the same workload to compute trace.overhead_pct
// against.
func baselinePath(dir, workload string) string {
	return filepath.Join(dir, "baseline-"+workload+".json")
}

// readBaseline returns the untraced ops_per_s of workload, running the
// untraced workload in a child process first when no earlier run left
// one.
func readBaseline(sp spec, opt options) (float64, error) {
	path := baselinePath(opt.dir, sp.name)
	js, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if _, err := runChild(sp.name, opt.seed, opt.seconds, false, opt.dir, os.Stderr); err != nil {
			return 0, fmt.Errorf("untraced baseline run: %w", err)
		}
		js, err = os.ReadFile(path)
	}
	if err != nil {
		return 0, err
	}
	var b runJSON
	if err := json.Unmarshal(js, &b); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return b.Metrics["ops_per_s"].Value, nil
}

// tracedExtras are the per-layer metrics only a traced run produces: the
// tracing overhead, the layer ladder and the algorithm sweep.
func tracedExtras(sp spec, opt options, res *result, tr *tracer) ([]metric, error) {
	base, err := readBaseline(sp, opt)
	if err != nil {
		return nil, err
	}
	ms := []metric{{"trace.overhead_pct", "%", 100 * (1 - ratio(find(res.endToEnd, "ops_per_s"), base))}}
	rungs, err := runLadder(opt, tr)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	ms = append(ms, rungs...)
	cells, err := runSweep(opt, tr)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return append(ms, cells...), nil
}

// runChild re-executes this binary for one workload, copying its report
// to echo (nil: discard) and returning the parsed last line.
func runChild(workload string, seed int64, seconds float64, traced bool, dir string, echo *os.File) (*runJSON, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-dir", dir)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if echo != nil {
		echo.Write(outBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var r runJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("workload %s: last line is not a result: %w", workload, err)
	}
	return &r, nil
}

// runAll runs every workload untraced, then (with traced) traced, each
// in a child process, failing if any of them failed verification.
func runAll(seed int64, seconds float64, traced bool, dir string) error {
	var errs []error
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, sp := range specs {
		for _, t := range modes {
			if _, err := runChild(sp.name, seed, seconds, t, dir, os.Stdout); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// find returns the value of the named metric (0 if absent).
func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}
