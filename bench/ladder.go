package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mmdb"
	"mmdb/internal/backup"
	"mmdb/internal/lockmgr"
	"mmdb/internal/netproto"
	"mmdb/internal/shard"
	"mmdb/internal/wal"
	"mmdb/kvstore"
)

// The layer ladder (ROADMAP item 1b): one goroutine drives the same
// precomputed stream of single-record writes — and the matching reads —
// at every rung of the stack, with no checkpoint loop, so that a layer's
// cost is the difference between two adjacent rungs rather than a guess.
const (
	ladderRecords = 65536
	ladderKeys    = ladderRecords / 2
	// ladderSegmentOps: a backup op moves a whole 32 KiB segment, so the
	// backup rungs run a sixteenth of the ops.
	ladderSegmentDiv = 16
)

// ladder carries what the rungs share.
type ladder struct {
	ops  int
	dir  string
	ids  []uint32
	pool []byte
	keys []byte
	tr   *tracer
	root spanID
	out  []metric
	ns   map[string]float64
}

// rung measures n calls of fn on this goroutine: mean time per call and
// mallocs per call (exact for the calling goroutine; a layer's own
// background goroutines add theirs).
func (l *ladder) rung(name, unit string, n int, fn func(i int) error) error {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return errors.Join(errors.New(name), err)
		}
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)
	l.tr.add(0, "ladder."+name, l.root, 0, start, end)
	ns := float64(end.Sub(start)) / float64(n)
	l.ns[name] = ns
	v := ns
	if unit == "us" {
		v = ns / 1e3
	}
	l.out = append(l.out,
		metric{name + "_" + unit, unit, v},
		metric{name + ".allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs) / float64(n)})
	return nil
}

func (l *ladder) id(i int) uint64     { return uint64(l.ids[i&streamMask]) }
func (l *ladder) val(i, n int) []byte { return l.pool[i&poolMask:][:n] }
func (l *ladder) key(i int) []byte {
	return l.keys[int(l.ids[i&streamMask])%ladderKeys*keyBytes:][:keyBytes]
}

func (l *ladder) config(sub string, shards int) mmdb.Config {
	cfg := spec{records: ladderRecords}.config(filepath.Join(l.dir, sub), true, false)
	cfg.Shards = shards
	return cfg
}

// runLadder runs every rung and returns their metrics plus the taxes.
func runLadder(opt options, tr *tracer) (ms []metric, err error) {
	dir, err := os.MkdirTemp(opt.dir, "ladder-*")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	l := &ladder{
		ops:  opt.scale.ladderOps,
		dir:  dir,
		ids:  uniformStream(opt.seed, 0, 1, ladderKeys).ids,
		pool: valuePool(opt.seed, recordBytes),
		keys: renderKeys(ladderKeys),
		tr:   tr,
		root: tr.newID(),
		ns:   map[string]float64{},
	}
	start := time.Now()
	for _, step := range []func() error{l.walRung, l.lockRung, l.backupRungs, l.engineRungs, l.kvstoreRungs, l.codecRung, l.shardAndClientRungs} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	tr.add(l.root, "ladder", 0, 0, start, time.Now())
	return append(l.out, taxes(l.ns)...), nil
}

// taxes turns rung times into each layer's own cost by subtraction.
func taxes(ns map[string]float64) []metric {
	return []metric{
		{"engine.tax_ns", "ns", ns["engine.execwrite"] - ns["wal.append"] - ns["lockmgr.lock_release"]},
		{"kvstore.tax_ns", "ns", ns["kvstore.put"] - ns["engine.execwrite"]},
		{"shard.tax_ns", "ns", ns["shard.put"] - ns["kvstore.put"]},
		{"net.tax_ns", "ns", ns["client.put_rtt"] - ns["shard.put"]},
	}
}

func (l *ladder) walRung() error {
	lg, err := wal.Open(filepath.Join(l.dir, "ladder.log"), wal.Options{FlushInterval: groupCommitInterval})
	if err != nil {
		return err
	}
	var upd, commit wal.Record
	err = l.rung("wal.append", "ns", l.ops, func(i int) error {
		upd = wal.Record{Type: wal.TypeUpdate, TxnID: uint64(i + 1), RecordID: l.id(i), Data: l.val(i, recordBytes)}
		if _, _, err := lg.Append(&upd); err != nil {
			return err
		}
		commit = wal.Record{Type: wal.TypeCommit, TxnID: uint64(i + 1)}
		_, _, err := lg.Append(&commit)
		return err
	})
	return errors.Join(err, lg.Close())
}

func (l *ladder) lockRung() error {
	m := lockmgr.New()
	defer m.Shutdown()
	return l.rung("lockmgr.lock_release", "ns", l.ops, func(i int) error {
		owner := uint64(i + 1)
		if err := m.Lock(owner, l.id(i), lockmgr.X, time.Second); err != nil {
			return err
		}
		m.ReleaseAll(owner)
		return nil
	})
}

func (l *ladder) backupRungs() error {
	const segBytes = recordBytes * mmdb.DefaultRecordsPerSegment
	segs := ladderRecords / mmdb.DefaultRecordsPerSegment
	bs, err := backup.Open(filepath.Join(l.dir, "backup"), segs, segBytes)
	if err != nil {
		return err
	}
	seg := make([]byte, segBytes)
	copy(seg, l.pool)
	n := max(l.ops/ladderSegmentDiv, 1)
	idx := func(i int) int { return int(l.id(i)) / mmdb.DefaultRecordsPerSegment % segs }
	err = bs.BeginCheckpoint(0, backup.CheckpointInfo{ID: 1})
	if err == nil {
		err = l.rung("backup.write_segment", "us", n, func(i int) error {
			return bs.WriteSegment(0, idx(i), 1, seg) //nolint:walorder // a bare store: no log and no database stand behind these images
		})
	}
	if err == nil {
		err = bs.FinishCheckpoint(0, 0, n, int64(n)*segBytes)
	}
	if err == nil {
		err = l.rung("backup.read_segment", "us", n, func(i int) error {
			_, err := bs.ReadSegment(0, idx(i), seg)
			return err
		})
	}
	return errors.Join(err, bs.Close())
}

func (l *ladder) engineRungs() error {
	db, err := mmdb.Open(l.config("engine", 0))
	if err != nil {
		return err
	}
	err = l.rung("engine.execwrite", "ns", l.ops, func(i int) error {
		return db.ExecWrite(l.id(i), l.val(i, recordBytes))
	})
	if err == nil {
		var base int
		fn := func(tx *mmdb.Txn) error {
			for j := base; j < base+writesPerTxn; j++ {
				if err := tx.Write(l.id(j), l.val(j, recordBytes)); err != nil {
					return err
				}
			}
			return nil
		}
		err = l.rung("engine.exec5", "ns", max(l.ops/writesPerTxn, 1), func(i int) error {
			base = i * writesPerTxn
			return db.Exec(fn)
		})
	}
	return errors.Join(err, db.Close())
}

// preloadKeys stores every ladder key, so the store rungs measure
// updates and hits, like engine.execwrite does.
func (l *ladder) preloadKeys(s kvstore.Store) error {
	ctx := context.Background()
	for k := 0; k < ladderKeys; k++ {
		if err := s.Put(ctx, l.keys[k*keyBytes:][:keyBytes], l.val(k, kvValueBytes)); err != nil {
			return err
		}
	}
	return nil
}

// storeRungs measures Put, then Get, of the stream's keys on s.
func (l *ladder) storeRungs(put, get string, s kvstore.Store) error {
	ctx := context.Background()
	if err := l.rung(put, "ns", l.ops, func(i int) error {
		return s.Put(ctx, l.key(i), l.val(i, kvValueBytes))
	}); err != nil {
		return err
	}
	return l.rung(get, "ns", l.ops, func(i int) error {
		_, ok, err := s.Get(ctx, l.key(i))
		if err == nil && !ok {
			err = errKeyMissing
		}
		return err
	})
}

func (l *ladder) kvstoreRungs() error {
	s, _, err := kvstore.Open(l.config("kvstore", 0))
	if err != nil {
		return err
	}
	err = l.preloadKeys(s)
	if err == nil {
		err = l.storeRungs("kvstore.put", "kvstore.get", s)
	}
	return errors.Join(err, s.Close())
}

// codecRung encodes a Put request frame and decodes it again, in
// memory: the wire format's share of a round trip.
func (l *ladder) codecRung() error {
	var pay, frame, rbuf []byte
	var rd bytes.Reader
	return l.rung("netproto.codec", "ns", l.ops, func(i int) error {
		pay = netproto.AppendPut(pay[:0], l.key(i), l.val(i, kvValueBytes))
		frame = netproto.AppendFrame(frame[:0], netproto.TPut, uint64(i), pay)
		rd.Reset(frame)
		f, b, err := netproto.ReadFrame(&rd, rbuf)
		rbuf = b
		if err != nil {
			return err
		}
		_, _, err = netproto.DecodePut(f.Pay)
		return err
	})
}

func (l *ladder) shardAndClientRungs() error {
	router, _, err := shard.Open(context.Background(), l.config("shard", kvShards))
	if err != nil {
		return err
	}
	err = l.preloadKeys(router)
	if err == nil {
		err = l.storeRungs("shard.put", "shard.get", router)
	}
	if err == nil {
		var lb *loopback
		if lb, err = newLoopback(router, 1); err == nil {
			err = errors.Join(l.storeRungs("client.put_rtt", "client.get_rtt", lb.clients[0]), lb.shutdown())
		}
	}
	return errors.Join(err, router.Close())
}
