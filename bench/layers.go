package main

import (
	"time"

	"mmdb"
	"mmdb/internal/obs"
)

// The engine histograms the per-layer metrics are derived from, by the
// names internal/engine registers them under.
const (
	hWALAppend = iota
	hWALFlush
	hFlushWait
	hLockWait
	hCOUCopy
	hSegWrite
	numLayerHists
)

var layerHistNames = [numLayerHists]string{
	hWALAppend: "mmdb_wal_append_seconds",
	hWALFlush:  "mmdb_wal_flush_seconds",
	hFlushWait: "mmdb_commit_attr_flush_wait_seconds",
	hLockWait:  "mmdb_lockmgr_wait_seconds",
	hCOUCopy:   "mmdb_commit_attr_cou_copy_seconds",
	hSegWrite:  "mmdb_backup_segment_write_seconds",
}

// layerSnap is what the engines' public counters and histograms read at
// one instant, summed over the engines of a target. Every per-layer
// ratio is computed from the difference of two snapshots around the
// timed phase, so set-up traffic never pollutes it.
type layerSnap struct {
	stats mmdb.Stats
	hists [numLayerHists]obs.Snapshot
}

func snapLayers(dbs []*mmdb.DB) layerSnap {
	var s layerSnap
	for _, db := range dbs {
		st := db.Stats()
		a := &s.stats
		a.TxnsBegun += st.TxnsBegun
		a.TxnsCommitted += st.TxnsCommitted
		a.LockAcquires += st.LockAcquires
		a.LockWaits += st.LockWaits
		a.LockTimeouts += st.LockTimeouts
		a.LogFlushes += st.LogFlushes
		a.LogBytes += st.LogBytes
		a.Checkpoints += st.Checkpoints
		a.SegmentsFlushed += st.SegmentsFlushed
		a.SegmentsSkipped += st.SegmentsSkipped
		a.BytesFlushed += st.BytesFlushed
		a.TotalCheckpointTime += st.TotalCheckpointTime
		a.COUPeakOld = max(a.COUPeakOld, st.COUPeakOld)
		reg := db.MetricsRegistry()
		for i, name := range layerHistNames {
			s.hists[i].Merge(reg.FindHistogram(name).Snapshot())
		}
	}
	for i := range s.hists {
		s.hists[i].Scale = obs.ScaleNanosToSeconds // Merge leaves the scale of an empty snapshot unset
	}
	return s
}

// histDelta is the histogram of the observations made between two
// snapshots.
func histDelta(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{
		Count:   after.Count - before.Count,
		Sum:     after.Sum - before.Sum,
		Max:     after.Max,
		Scale:   after.Scale,
		Buckets: make([]uint64, len(after.Buckets)),
	}
	for i := range d.Buckets {
		d.Buckets[i] = after.Buckets[i]
		if i < len(before.Buckets) {
			d.Buckets[i] -= before.Buckets[i]
		}
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const usPerNs = 1e-3

// layerMetrics derives the counter-based per-layer metrics of one timed
// phase of ops operations lasting elapsed.
func layerMetrics(before, after layerSnap, ops float64, elapsed time.Duration) []metric {
	b, a := before.stats, after.stats
	var d [numLayerHists]obs.Snapshot
	for i := range d {
		d[i] = histDelta(before.hists[i], after.hists[i])
	}
	sumUs := func(i int) float64 { return float64(d[i].Sum) * usPerNs }
	ckpts := float64(a.Checkpoints - b.Checkpoints)
	ckptTime := a.TotalCheckpointTime - b.TotalCheckpointTime
	flushed := float64(a.SegmentsFlushed - b.SegmentsFlushed)
	skipped := float64(a.SegmentsSkipped - b.SegmentsSkipped)
	acquires := float64(a.LockAcquires - b.LockAcquires)
	return []metric{
		{"wal.bytes_per_op", "B", ratio(float64(a.LogBytes-b.LogBytes), ops)},
		{"wal.append_us_per_op", "us", ratio(sumUs(hWALAppend), ops)},
		{"wal.ops_per_flush", "count", ratio(ops, float64(a.LogFlushes-b.LogFlushes))},
		{"wal.flush_wait_us_per_op", "us", ratio(sumUs(hFlushWait), ops)},
		{"wal.flush_p50_us", "us", d[hWALFlush].Quantile(0.5) * 1e6},
		{"lockmgr.acquires_per_op", "count", ratio(acquires, ops)},
		{"lockmgr.wait_share", "ratio", ratio(float64(a.LockWaits-b.LockWaits), acquires)},
		{"lockmgr.wait_us_per_op", "us", ratio(sumUs(hLockWait), ops)},
		{"lockmgr.timeouts", "count", float64(a.LockTimeouts - b.LockTimeouts)},
		{"engine.restarts_per_op", "count", ratio(float64(a.TxnsBegun-b.TxnsBegun)-float64(a.TxnsCommitted-b.TxnsCommitted), ops)},
		{"engine.cou_copy_us_per_op", "us", ratio(sumUs(hCOUCopy), ops)},
		{"engine.cou_peak_old", "count", float64(a.COUPeakOld)},
		{"ckpt.count", "count", ckpts},
		{"ckpt.mean_ms", "ms", ratio(ckptTime.Seconds()*1e3, ckpts)},
		{"ckpt.duty_share", "ratio", ratio(ckptTime.Seconds(), elapsed.Seconds())},
		{"ckpt.bytes_per_op", "B", ratio(float64(a.BytesFlushed-b.BytesFlushed), ops)},
		{"ckpt.skipped_share", "ratio", ratio(skipped, skipped+flushed)},
		{"backup.segment_write_p50_us", "us", d[hSegWrite].Quantile(0.5) * 1e6},
	}
}

// recoveryPhases is one recovery as the RecoveryReport splits it.
type recoveryPhases struct {
	total, load, scan, redo time.Duration
	logBytes, backupBytes   int64
}

func phasesOf(rep *mmdb.RecoveryReport) recoveryPhases {
	if rep == nil {
		return recoveryPhases{}
	}
	return recoveryPhases{
		load: rep.BackupLoadTime, scan: rep.LogScanTime, redo: rep.RedoApplyTime,
		logBytes: rep.LogBytesRead, backupBytes: rep.BackupBytesRead,
	}
}

// merge folds in a shard recovered concurrently with the others: the
// slowest shard sets each phase's time, the volumes add.
func (p *recoveryPhases) merge(o recoveryPhases) {
	p.load = max(p.load, o.load)
	p.scan = max(p.scan, o.scan)
	p.redo = max(p.redo, o.redo)
	p.logBytes += o.logBytes
	p.backupBytes += o.backupBytes
}

const mb = 1e6

func (p recoveryPhases) metrics() []metric {
	other := p.total - p.load - p.scan - p.redo
	if other < 0 {
		other = 0
	}
	logMB := float64(p.logBytes) / mb
	return []metric{
		{"recovery.backup_load_s", "s", p.load.Seconds()},
		{"recovery.log_scan_s", "s", p.scan.Seconds()},
		{"recovery.redo_apply_s", "s", p.redo.Seconds()},
		{"recovery.other_s", "s", other.Seconds()},
		{"recovery.log_mb", "MB", logMB},
		{"recovery.backup_mb", "MB", float64(p.backupBytes) / mb},
		{"recovery.log_mb_per_s", "MB/s", ratio(logMB, (p.scan + p.redo).Seconds())},
	}
}

// oracle is the last-writer oracle of the tail: indexed by record ID or
// key index, it holds one plus the stream position of the last write
// (zero: untouched), from which the written value follows.
type oracle []uint32
