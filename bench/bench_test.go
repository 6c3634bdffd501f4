package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"mmdb"
)

// toy is the smoke-test scale: small enough that every workload, the
// ladder and a sweep cell run in a few seconds under plain `go test`.
var toy = scale{records: 4096, tailOps: 500, setups: 1, ladderOps: 500, sweepSeconds: 0.1}

func toyOptions(t *testing.T) options {
	return options{seed: 1, seconds: 0.5, dir: t.TempDir(), scale: toy}
}

func checkFinite(t *testing.T, ms []metric, positive bool) {
	t.Helper()
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s = %v, want a finite value", m.name, m.value)
		}
		if positive && m.value <= 0 {
			t.Errorf("%s = %v, want > 0", m.name, m.value)
		}
		if m.unit == "" {
			t.Errorf("%s has no unit", m.name)
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy scale and asserts that
// each named end-to-end metric is emitted, finite and positive, that no
// op failed, that the recovered state verified, and that the run left
// neither goroutines nor directories behind.
func TestWorkloadsSmoke(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	for _, sp := range specs {
		opt := toyOptions(t)
		res, err := runWorkload(sp, opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if len(res.endToEnd) != len(endToEnd) {
			t.Fatalf("%s: %d end-to-end metrics, want %d", sp.name, len(res.endToEnd), len(endToEnd))
		}
		for i, m := range res.endToEnd {
			if m.name != endToEnd[i].name || m.unit != endToEnd[i].unit {
				t.Errorf("%s: metric %d is %s [%s], want %s [%s]", sp.name, i, m.name, m.unit, endToEnd[i].name, endToEnd[i].unit)
			}
		}
		checkFinite(t, res.endToEnd, true)
		checkFinite(t, res.perLayer, false)
		if res.attempted == 0 || res.failed != 0 || res.verified == 0 || res.verifyFailed != 0 {
			t.Errorf("%s: attempted %d, failed %d (%v), verified %d, verify_failed %d",
				sp.name, res.attempted, res.failed, res.firstErr, res.verified, res.verifyFailed)
		}
		if share := find(res.perLayer, "driver.gen_share"); share >= 0.05 {
			t.Errorf("%s: driver.gen_share = %.3f, want < 0.05", sp.name, share)
		}
		if left, _ := os.ReadDir(opt.dir); len(left) != 0 {
			t.Errorf("%s: %d entries left in the work directory", sp.name, len(left))
		}
	}
	for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the workloads, %d before", n, goroutines)
	}
}

// TestTracedExtrasSmoke runs the ladder and one sweep cell at toy scale
// with the tracer on, and writes the Chrome trace.
func TestTracedExtrasSmoke(t *testing.T) {
	opt := toyOptions(t)
	opt.traced = true
	tr := newTracer()
	rungs, err := runLadder(opt, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, rungs, false)
	for _, name := range []string{"wal.append_ns", "lockmgr.lock_release_ns", "backup.write_segment_us", "backup.read_segment_us",
		"engine.execwrite_ns", "engine.exec5_ns", "kvstore.put_ns", "kvstore.get_ns", "shard.put_ns", "shard.get_ns",
		"netproto.codec_ns", "client.put_rtt_ns", "client.get_rtt_ns"} {
		if find(rungs, name) <= 0 {
			t.Errorf("ladder rung %s = %v, want > 0", name, find(rungs, name))
		}
	}
	cell, err := sweepCell(mmdb.TwoColorFlush, opt, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, cell, false)
	if find(cell, "engine.alg.2CFLUSH.ops_per_s") <= 0 {
		t.Errorf("sweep cell reported no throughput: %+v", cell)
	}

	path := opt.dir + "/trace.json"
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) < 14 {
		t.Errorf("%d trace events, want the ladder root, 13 rungs and a sweep cell", len(doc.TraceEvents))
	}
}

// TestCorruptionFailsTheRun damages one record the tail wrote, after
// recovery and before verification, and expects the oracle to notice.
func TestCorruptionFailsTheRun(t *testing.T) {
	sp, _ := findSpec("txn-ckpt")
	opt := toyOptions(t)
	opt.corrupt = func(tg target, o oracle) {
		for rid, p := range o {
			if p != 0 {
				if err := tg.(*txnTarget).db.ExecWrite(uint64(rid), []byte("not what the tail wrote")); err != nil {
					t.Error(err)
				}
				return
			}
		}
		t.Error("the tail touched no record")
	}
	res, err := runWorkload(sp, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.verifyFailed != 1 || res.correct() {
		t.Errorf("verify_failed = %d, correct = %t; want 1, false", res.verifyFailed, res.correct())
	}
}

// TestHistQuantileError checks the latency buffer against a sorted
// reference: every quantile within 1 %.
func TestHistQuantileError(t *testing.T) {
	values := make([]uint64, 200000)
	h := new(hist)
	// Log-uniform over 100 ns .. 100 ms, the range op latencies live in.
	for i := range values {
		x := 100 * math.Pow(1e6, float64(i*7919%len(values))/float64(len(values)))
		values[i] = uint64(x)
		h.record(values[i])
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := float64(values[int(math.Ceil(q*float64(len(values))))-1])
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.1f, reference %.1f: error %.2f%% > 1%%", q, got, want, 100*math.Abs(got-want)/want)
		}
	}
	var merged hist
	merged.merge(h)
	merged.merge(h)
	if merged.n != 2*h.n || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merging a histogram with itself moved the median")
	}
}

func TestTaxesSubtract(t *testing.T) {
	ns := map[string]float64{
		"wal.append": 300, "lockmgr.lock_release": 1500, "engine.execwrite": 2700,
		"kvstore.put": 3400, "shard.put": 3500, "client.put_rtt": 28000,
	}
	want := map[string]float64{"engine.tax_ns": 900, "kvstore.tax_ns": 700, "shard.tax_ns": 100, "net.tax_ns": 24500}
	got := taxes(ns)
	if len(got) != len(want) {
		t.Fatalf("%d taxes, want %d", len(got), len(want))
	}
	for _, m := range got {
		if m.value != want[m.name] {
			t.Errorf("%s = %v, want %v", m.name, m.value, want[m.name])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 3, 1, 4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestTraceArg(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace", "1"}},
		{[]string{"--trace", "0", "-seed", "2"}, []string{"--trace", "0", "-seed", "2"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace", "1", "-seed", "2"}},
	} {
		got := traceArg(c.in)
		if len(got) != len(c.want) {
			t.Errorf("traceArg(%v) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("traceArg(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, the same end-to-end metrics with the same units,
// and exactly the per-layer metrics a traced run reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	js, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in specs", i, w.Name, specs[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %v in BENCHMARK.json, %v in the program", i, m, endToEnd[i])
		}
	}

	sp, _ := findSpec("kv-net")
	opt := toyOptions(t)
	opt.traced = true
	res, err := runWorkload(sp, opt, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	rungs, err := runLadder(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := runSweep(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]string{"trace.overhead_pct": "%"}
	for _, ms := range [][]metric{res.perLayer, rungs, cells} {
		for _, m := range ms {
			emitted[m.name] = m.unit
		}
	}
	if len(doc.PerLayer) != len(emitted) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d emitted", len(doc.PerLayer), len(emitted))
	}
	for _, m := range doc.PerLayer {
		if unit, ok := emitted[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s [%s] of BENCHMARK.json is emitted as [%s] (emitted: %t)", m.Name, m.Unit, unit, ok)
		}
	}
}
