package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmdb"
)

// target is a workload's system under test: the two implementations
// are the engine alone (txnTarget) and the full network stack
// (kvTarget). The protocol in runWorkload is the same for both.
type target interface {
	makeStreams(seed int64)
	open(dir string) error
	preload() error
	checkpoint() error
	reopen() error
	client(i int) func(pos uint64) (kind int, err error)
	startCheckpoints()
	stopCheckpoints()
	// beginTail switches the clients to the tail's op mix.
	beginTail()
	engines() []*mmdb.DB
	routedOps() []float64
	wire() wireCounts
	crash() error
	recover() (recoveryPhases, error)
	oracleSize() int
	record(o oracle, client int, from, to uint64)
	verify(o oracle) (checked, bad int, err error)
	close() error
}

// options are the knobs of one workload run.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// dir is the work directory; each set-up gets a fresh subdirectory
	// that is removed again, on success and on failure.
	dir   string
	scale scale
	// corrupt, in tests, damages the recovered state before verification.
	corrupt func(t target, o oracle)
}

// result is everything one workload run measured.
type result struct {
	attempted    uint64
	failed       uint64
	verifyFailed int
	verified     int
	firstErr     error
	endToEnd     []metric
	perLayer     []metric
}

func (r *result) correct() bool { return r.failed == 0 && r.verifyFailed == 0 }

// clientRun is one closed-loop client: its position in its stream and
// the preallocated buffers its timed loop records into.
type clientRun struct {
	do  func(pos uint64) (int, error)
	pos uint64
	// hists holds one latency histogram per slice and op kind
	// (slice*numKinds + kind).
	hists    []hist
	busy     time.Duration
	failed   uint64
	firstErr error
	track    uint32
	ops      atomic.Uint64
	_        [56]byte // keep ops off the neighbours' cache lines
}

// phaseCtl is what the sampler publishes to the clients.
type phaseCtl struct {
	slice atomic.Int32
	stop  atomic.Bool
}

// loop runs ops until told to stop or, with limit > 0, for exactly limit
// ops. Everything it touches is preallocated; it reads the clock twice
// per op so that time outside the store call (the generator's own) can
// be told apart.
func (c *clientRun) loop(ctl *phaseCtl, limit uint64, tr *tracer, parent spanID) {
	for n := uint64(0); (limit == 0 || n < limit) && !ctl.stop.Load(); n++ {
		t0 := time.Now()
		kind, err := c.do(c.pos)
		t1 := time.Now()
		c.pos++
		d := t1.Sub(t0)
		c.busy += d
		c.hists[int(ctl.slice.Load())*numKinds+kind].record(uint64(d))
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
		}
		c.ops.Add(1)
		if tr != nil && n%opSpanEvery == 0 {
			tr.add(0, opNames[kind], parent, c.track, t0, t1)
		}
	}
}

// reset gives the client fresh buffers for a phase of the given number
// of slices.
func (c *clientRun) reset(slices int) {
	c.hists = make([]hist, slices*numKinds)
	c.ops.Store(0)
	c.busy, c.failed, c.firstErr = 0, 0, nil
}

var opNames = [numKinds]string{kindGet: "op.get", kindPut: "op.put"}

// sample is one reading of the clocks and counters at a slice boundary.
type sample struct {
	at  time.Time
	cpu time.Duration
	ops uint64
}

func takeSample(clients []*clientRun) sample {
	s := sample{at: time.Now(), cpu: cpuTime()}
	for _, c := range clients {
		s.ops += c.ops.Load()
	}
	return s
}

// maxFixedSlices bounds the slices of a fixed-op-count phase; ops past
// the last boundary all land in the last slice.
const maxFixedSlices = 256

// timedPhase runs every client for d (limit == 0) or for exactly limit
// ops each (d ignored), sampling at slice boundaries. It returns the
// samples; latencies are in the clients' histograms.
func timedPhase(clients []*clientRun, d time.Duration, limit uint64, slice time.Duration, tr *tracer, parent spanID) []sample {
	slices := maxFixedSlices
	if limit == 0 {
		slices = int((d + slice - 1) / slice)
	}
	for _, c := range clients {
		c.reset(slices)
	}
	runtime.GC()

	var ctl phaseCtl
	var wg sync.WaitGroup
	done := make(chan struct{})
	samples := make([]sample, 1, slices+1)
	samples[0] = takeSample(clients)
	for _, c := range clients {
		wg.Add(1)
		// goleak:joins wg.Wait in the closer goroutine, joined via done
		go func(c *clientRun) {
			defer wg.Done()
			c.loop(&ctl, limit, tr, parent)
		}(c)
	}
	// goleak:joins the receive on done below
	go func() {
		wg.Wait()
		close(done)
	}()
	start := samples[0].at
sampling:
	for i := 1; i <= slices; i++ {
		boundary := time.Duration(i) * slice
		if limit == 0 {
			boundary = min(boundary, d)
		}
		select {
		case <-time.After(time.Until(start.Add(boundary))):
			samples = append(samples, takeSample(clients))
			ctl.slice.Store(int32(min(i, slices-1)))
		case <-done:
			break sampling
		}
	}
	if limit == 0 {
		ctl.stop.Store(true)
	}
	<-done
	if limit > 0 {
		// The clients ended on their own, part-way through a slice.
		samples = append(samples, takeSample(clients))
	}
	return samples
}

// sliceStats are the per-slice rates and percentiles of a timed phase.
type sliceStats struct {
	rate, cpuPerOp, p50, p99 []float64
}

// slicesOf turns samples and histograms into per-slice statistics. A
// trailing slice shorter than half the slice length is folded away
// unless it is the only one.
func slicesOf(samples []sample, clients []*clientRun, slice time.Duration) sliceStats {
	var st sliceStats
	n := len(samples) - 1
	if n > 1 && samples[n].at.Sub(samples[n-1].at) < slice/2 {
		n--
	}
	for i := 0; i < n; i++ {
		dt := samples[i+1].at.Sub(samples[i].at).Seconds()
		ops := float64(samples[i+1].ops - samples[i].ops)
		if ops == 0 || dt <= 0 {
			continue
		}
		var h hist
		for _, c := range clients {
			for k := 0; k < numKinds; k++ {
				h.merge(&c.hists[i*numKinds+k])
			}
		}
		st.rate = append(st.rate, ops/dt)
		st.cpuPerOp = append(st.cpuPerOp, float64(samples[i+1].cpu-samples[i].cpu)/1e3/ops)
		st.p50 = append(st.p50, h.quantile(0.50)/1e3)
		st.p99 = append(st.p99, h.quantile(0.99)/1e3)
	}
	return st
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func newTarget(sp spec, seed int64, traced bool) target {
	if sp.kv {
		return newKVTarget(sp, seed, traced)
	}
	return newTxnTarget(sp, seed, traced)
}

// setUp is step 1 of the protocol: a fresh directory, every record or
// key written once under asynchronous commit, two full checkpoints so
// both ping-pong copies are valid, a reopen under the workload's own
// commit policy, and the op streams precomputed from the seed.
func setUp(t target, dir string, seed int64, tr *tracer, parent spanID) error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"setup.open", func() error { return t.open(dir) }},
		{"setup.preload", t.preload},
		{"setup.checkpoint", func() error { return errors.Join(t.checkpoint(), t.checkpoint()) }},
		{"setup.reopen", t.reopen},
		{"setup.streams", func() error { t.makeStreams(seed); runtime.GC(); return nil }},
	}
	for _, s := range steps {
		if err := tr.phase(s.name, parent, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// runWorkload runs one workload through the common protocol (see
// bench/README.md): set-up, timed phase, deterministic crash state,
// repeated recovery with verification.
func runWorkload(sp spec, opt options, tr *tracer) (res *result, err error) {
	sp = sp.scaled(opt.scale)
	res = &result{}
	root := tr.newID()
	rootStart := time.Now()
	defer func() { tr.add(root, sp.name, 0, 0, rootStart, time.Now()) }()

	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	var t target
	var dir string
	cleanup := func() error {
		if t == nil {
			return nil
		}
		cerr := t.close()
		t = nil
		return errors.Join(cerr, os.RemoveAll(dir))
	}
	defer func() {
		if cerr := cleanup(); err == nil {
			err = cerr
		}
	}()

	// Step 1, opt.scale.setups times; the last one is kept and measured on.
	setupTimes := make([]float64, 0, opt.scale.setups)
	for i := 0; i < opt.scale.setups; i++ {
		if err := cleanup(); err != nil {
			return nil, err
		}
		runtime.GC() // the previous set-up's database is garbage now
		if dir, err = os.MkdirTemp(opt.dir, sp.name+"-*"); err != nil {
			return nil, err
		}
		began := time.Now()
		t = newTarget(sp, opt.seed, opt.traced)
		if err := setUp(t, dir, opt.seed, tr, root); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(began).Seconds())
	}

	// Step 2: the timed phase.
	clients := make([]*clientRun, sp.clients)
	for i := range clients {
		clients[i] = &clientRun{do: t.client(i), track: uint32(i + 1)}
	}
	var limit uint64
	if sp.opsPerSecond > 0 {
		limit = uint64(float64(sp.opsPerSecond) * opt.seconds)
	}
	timedID := tr.newID()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before, wire0, routed0 := snapLayers(t.engines()), t.wire(), t.routedOps()
	if sp.ckptLoop {
		t.startCheckpoints()
	}
	samples := timedPhase(clients, time.Duration(opt.seconds*float64(time.Second)), limit, sp.slice, tr, timedID)
	after, wire1, routed1 := snapLayers(t.engines()), t.wire(), t.routedOps()
	runtime.ReadMemStats(&ms1)
	first, last := samples[0], samples[len(samples)-1]
	tr.add(timedID, "timed", root, 0, first.at, last.at)
	elapsed := last.at.Sub(first.at)
	ops := float64(last.ops - first.ops)

	var whole hist
	var kinds [numKinds]hist
	var busy time.Duration
	for _, c := range clients {
		for i := range c.hists {
			kinds[i%numKinds].merge(&c.hists[i])
		}
		busy += c.busy
		res.attempted += c.ops.Load()
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	for k := range kinds {
		whole.merge(&kinds[k])
	}
	if !sp.kv {
		// The client.* metrics are the network clients'; on the engine
		// workloads every op is a "put", which op_p50_us already reports.
		kinds = [numKinds]hist{}
	}
	st := slicesOf(samples, clients, sp.slice)

	// Step 3: the deterministic crash state. With a tail, the timed
	// phase's effects are checkpointed away and only client 0's tail is
	// left in the log; without one the timed phase itself is the tail.
	o := make(oracle, t.oracleSize())
	if err := tr.phase("tail", root, func() error {
		if sp.tailOps == 0 {
			for i, c := range clients {
				t.record(o, i, 0, c.pos)
			}
			return nil
		}
		t.stopCheckpoints()
		if err := t.checkpoint(); err != nil {
			return err
		}
		t.beginTail()
		c := clients[0]
		from := c.pos
		c.reset(1)
		c.loop(&phaseCtl{}, uint64(sp.tailOps), nil, 0)
		t.record(o, 0, from, c.pos)
		res.attempted += uint64(sp.tailOps)
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("tail: %w", err)
	}
	if err := tr.phase("crash", root, func() error {
		// Under asynchronous commit an acknowledged write is durable one
		// group-commit interval later; wait ten. Under synchronous commit
		// there is nothing to wait for.
		if !sp.durable {
			time.Sleep(10 * groupCommitInterval)
		}
		return t.crash()
	}); err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}

	// Step 4: recover the identical on-disk state an odd number of times:
	// at least minRecoveries, and more while they are short, so that the
	// median of a sub-second recovery rests on more than three samples.
	var runs []recoveryPhases
	var spent time.Duration
	for i := 0; i < minRecoveries || (i < maxRecoveries && (spent < recoveryBudget || i%2 == 0)); i++ {
		if i > 0 {
			if err := t.crash(); err != nil {
				return nil, fmt.Errorf("crash after recovery %d: %w", i-1, err)
			}
		}
		// Collect the crashed engine's memory first, so peak RSS does not
		// depend on when the collector last happened to run.
		runtime.GC()
		id := tr.newID()
		began := time.Now()
		ph, err := t.recover()
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		tr.add(id, "recover", root, 0, began, began.Add(ph.total))
		at := began
		for _, c := range []struct {
			name string
			d    time.Duration
		}{{"recover.backup_load", ph.load}, {"recover.log_scan", ph.scan}, {"recover.redo_apply", ph.redo}} {
			tr.add(0, c.name, id, 0, at, at.Add(c.d))
			at = at.Add(c.d)
		}
		runs = append(runs, ph)
		spent += ph.total
		if i == 0 {
			if opt.corrupt != nil {
				opt.corrupt(t, o)
			}
			if res.verified, res.verifyFailed, err = t.verify(o); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].total < runs[j].total })
	rec := runs[len(runs)/2]

	if err := cleanup(); err != nil {
		return nil, err
	}

	res.endToEnd = []metric{
		{"ops_per_s", "1/s", median(st.rate)},
		{"op_p50_us", "us", median(st.p50)},
		{"op_p99_us", "us", median(st.p99)},
		{"cpu_us_per_op", "us", median(st.cpuPerOp)},
		{"recovery_s", "s", rec.total.Seconds()},
		{"peak_rss_mb", "MB", peakRSSMB()},
		{"setup_s", "s", median(setupTimes)},
	}
	res.perLayer = layerMetrics(before, after, ops, elapsed)
	wire := wire1.sub(wire0)
	res.perLayer = append(res.perLayer,
		metric{"shard.imbalance", "ratio", imbalance(routed0, routed1)},
		metric{"client.get_p50_us", "us", kinds[kindGet].quantile(0.50) / 1e3},
		metric{"client.get_p99_us", "us", kinds[kindGet].quantile(0.99) / 1e3},
		metric{"client.put_p50_us", "us", kinds[kindPut].quantile(0.50) / 1e3},
		metric{"client.put_p99_us", "us", kinds[kindPut].quantile(0.99) / 1e3},
		metric{"client.bytes_per_op", "B", ratio(float64(wire.bytes), ops)},
		metric{"client.writes_per_op", "count", ratio(float64(wire.writes), ops)},
		metric{"client.reads_per_op", "count", ratio(float64(wire.reads), ops)},
		metric{"runtime.allocs_per_op", "count", ratio(float64(ms1.Mallocs-ms0.Mallocs), ops)},
		metric{"runtime.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6},
		metric{"driver.gen_share", "ratio", 1 - ratio(busy.Seconds(), elapsed.Seconds()*float64(sp.clients))},
		metric{"driver.op_p999_us", "us", whole.quantile(0.999) / 1e3},
	)
	res.perLayer = append(res.perLayer, rec.metrics()...)
	return res, nil
}

// imbalance is the most-loaded shard's routed ops over the least-loaded
// shard's, during the timed phase (0 without a router).
func imbalance(before, after []float64) float64 {
	if len(after) == 0 || len(before) != len(after) {
		return 0
	}
	lo, hi := after[0]-before[0], after[0]-before[0]
	for i := range after {
		d := after[i] - before[i]
		lo, hi = min(lo, d), max(hi, d)
	}
	return ratio(hi, lo)
}
