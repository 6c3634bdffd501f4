package main

import (
	"time"

	"mmdb"
)

// Fixed configuration shared by every workload unless its spec says
// otherwise (bench/README.md states the flush policy per workload).
const (
	recordBytes         = 128
	writesPerTxn        = 5
	kvValueBytes        = 64
	kvShards            = 2
	checkpointInterval  = 500 * time.Millisecond
	groupCommitInterval = 2 * time.Millisecond
	pipelineWorkers     = 2 // CheckpointParallelism = RecoveryParallelism
	opSpanEvery         = 64
	// recovery_s is the median of minRecoveries recoveries, or of more
	// (an odd number, at most maxRecoveries) until recoveryBudget is spent.
	minRecoveries  = 3
	maxRecoveries  = 9
	recoveryBudget = 3 * time.Second
)

// spec describes one workload. An op is one committed transaction of
// writesPerTxn record writes, or on kv-net one Get or Put.
type spec struct {
	name string
	// kv drives client → TCP → server → router → kvstore; otherwise the
	// clients call DB.Exec directly.
	kv bool
	// records is the number of record slots; keys (kv only) the number of
	// preloaded keys.
	records, keys int
	clients       int
	// durable selects SyncCommit + SyncOnFlush for everything after the
	// preload.
	durable bool
	// ckptLoop runs the checkpoint loop during the timed phase.
	ckptLoop bool
	// opsPerSecond, when non-zero, replaces the wall-clock timed phase by
	// exactly opsPerSecond × -seconds ops that also serve as the tail:
	// no checkpoint separates them from the crash.
	opsPerSecond int
	// tailOps is the number of ops client 0 runs alone between the final
	// checkpoint and the crash.
	tailOps int
	// slice is the length of the intervals whose per-interval rates and
	// percentiles the reported medians are taken over.
	slice time.Duration
	// alg and ckptEvery override COUCOPY and checkpointInterval (the
	// algorithm sweep's cells do).
	alg       mmdb.Algorithm
	ckptEvery time.Duration
}

var specs = []spec{
	{name: "txn-ckpt", records: 262144, clients: 2, ckptLoop: true, tailOps: 50000, slice: 500 * time.Millisecond},
	{name: "txn-durable", records: 262144, clients: 2, durable: true, ckptLoop: true, tailOps: 20000, slice: 500 * time.Millisecond},
	{name: "kv-net", kv: true, records: 262144, keys: 131072, clients: 2, ckptLoop: true, tailOps: 50000, slice: 500 * time.Millisecond},
	{name: "recover", records: 1048576, clients: 1, opsPerSecond: 20000, slice: 100 * time.Millisecond},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// scale sizes a run. fullScale is what BENCHMARK.json measures; the
// smoke tests shrink everything.
type scale struct {
	// records and tailOps, when non-zero, replace every spec's.
	records, tailOps int
	// setups is how many times set-up runs (setup_s is their median).
	setups int
	// ladderOps is the op count of a ladder rung; sweepSeconds the timed
	// phase of one algorithm-sweep cell.
	ladderOps    int
	sweepSeconds float64
}

var fullScale = scale{setups: 3, ladderOps: 50000, sweepSeconds: 1}

func (sp spec) scaled(sc scale) spec {
	if sc.records > 0 {
		if sp.kv {
			sp.keys = sc.records / 2
		}
		sp.records = sc.records
	}
	if sc.tailOps > 0 && sp.tailOps > 0 {
		sp.tailOps = sc.tailOps
	}
	return sp
}

// config is the engine configuration of a workload. preload selects the
// asynchronous commit policy every workload's set-up loads data with;
// traced switches the engine's own span recorder on, so the traced run
// pays for it.
func (sp spec) config(dir string, preload, traced bool) mmdb.Config {
	cfg := mmdb.Config{
		Dir:                   dir,
		NumRecords:            sp.records,
		RecordBytes:           recordBytes,
		Algorithm:             mmdb.COUCopy,
		StableLogTail:         sp.alg == mmdb.FastFuzzy, // FASTFUZZY is only legal with one
		CheckpointInterval:    checkpointInterval,
		GroupCommitInterval:   groupCommitInterval,
		CheckpointParallelism: pipelineWorkers,
		RecoveryParallelism:   pipelineWorkers,
		SpanSampleEvery:       -1,
	}
	if sp.alg != 0 {
		cfg.Algorithm = sp.alg
	}
	if sp.ckptEvery != 0 {
		cfg.CheckpointInterval = sp.ckptEvery
	}
	if sp.kv {
		cfg.Shards = kvShards
	}
	if sp.durable && !preload {
		cfg.SyncCommit = true
		cfg.SyncOnFlush = true
	}
	if traced {
		cfg.SpanSampleEvery = 1
	}
	return cfg
}

// metric is one named, unit-carrying result.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd lists the end-to-end metrics in reporting order; BENCHMARK.json
// carries their directions and bounds.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"recovery_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}
