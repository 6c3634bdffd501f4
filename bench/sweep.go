package main

import (
	"errors"
	"os"
	"time"

	"mmdb"
)

// The algorithm sweep: the txn-ckpt load, briefly, on every checkpoint
// algorithm the engine has. Informational coverage, so that a change to
// the shared sweep machinery can be shown flat on all eight and not only
// on COUCOPY, which is what the workloads run.
const (
	sweepRecords = 65536
	// sweepInterval is shorter than the workloads' interval so that even
	// a one-second cell completes several checkpoints.
	sweepInterval = 100 * time.Millisecond
)

func runSweep(opt options, tr *tracer) ([]metric, error) {
	root := tr.newID()
	start := time.Now()
	var out []metric
	for _, alg := range mmdb.Algorithms {
		ms, err := sweepCell(alg, opt, tr, root)
		if err != nil {
			return nil, errors.Join(errors.New(alg.String()), err)
		}
		out = append(out, ms...)
	}
	tr.add(root, "sweep", 0, 0, start, time.Now())
	return out, nil
}

func sweepCell(alg mmdb.Algorithm, opt options, tr *tracer, parent spanID) (ms []metric, err error) {
	sp := spec{records: sweepRecords, clients: 2, ckptLoop: true, slice: time.Second, alg: alg, ckptEvery: sweepInterval}
	dir, err := os.MkdirTemp(opt.dir, "sweep-*")
	if err != nil {
		return nil, err
	}
	t := newTxnTarget(sp, opt.seed, false)
	defer func() {
		err = errors.Join(err, t.close(), os.RemoveAll(dir))
	}()
	if err := t.open(dir); err != nil {
		return nil, err
	}
	if err := t.preload(); err != nil {
		return nil, err
	}
	if err := t.checkpoint(); err != nil {
		return nil, err
	}
	t.makeStreams(opt.seed)
	clients := make([]*clientRun, sp.clients)
	for i := range clients {
		clients[i] = &clientRun{do: t.client(i)}
	}
	before := snapLayers(t.engines())
	t.startCheckpoints()
	samples := timedPhase(clients, time.Duration(opt.scale.sweepSeconds*float64(time.Second)), 0, sp.slice, nil, 0)
	t.stopCheckpoints()
	after := snapLayers(t.engines())
	first, last := samples[0], samples[len(samples)-1]
	tr.add(0, "sweep."+alg.String(), parent, 0, first.at, last.at)
	for _, c := range clients {
		if c.firstErr != nil {
			return nil, c.firstErr
		}
	}
	ops, elapsed := float64(last.ops-first.ops), last.at.Sub(first.at)
	layers := layerMetrics(before, after, ops, elapsed)
	prefix := "engine.alg." + alg.String() + "."
	return []metric{
		{prefix + "ops_per_s", "1/s", ratio(ops, elapsed.Seconds())},
		{prefix + "ckpt_mean_ms", "ms", find(layers, "ckpt.mean_ms")},
		{prefix + "restarts_per_op", "count", find(layers, "engine.restarts_per_op")},
	}, nil
}
