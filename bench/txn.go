package main

import (
	"bytes"
	"fmt"
	"time"

	"mmdb"
)

// txnTarget drives the engine directly: each client commits
// transactions of writesPerTxn record writes through DB.Exec. The
// network layers are bypassed.
type txnTarget struct {
	sp     spec
	traced bool
	dir    string
	db     *mmdb.DB
	pool   []byte
	ids    [][]uint32 // per client
}

func newTxnTarget(sp spec, seed int64, traced bool) *txnTarget {
	return &txnTarget{sp: sp, traced: traced, pool: valuePool(seed, recordBytes)}
}

func (t *txnTarget) makeStreams(seed int64) {
	t.ids = make([][]uint32, t.sp.clients)
	for c := range t.ids {
		t.ids[c] = uniformStream(seed, c, t.sp.clients, t.sp.records).ids
	}
}

// txnClient is one client's closure state. fn is bound once, so the
// timed loop passes Exec the same func value every time and allocates
// nothing of its own.
type txnClient struct {
	t    *txnTarget
	ids  []uint32
	base uint64
	fn   func(tx *mmdb.Txn) error
}

func (c *txnClient) body(tx *mmdb.Txn) error {
	for j := uint64(0); j < writesPerTxn; j++ {
		p := c.base + j
		if err := tx.Write(uint64(c.ids[p&streamMask]), c.t.pool[p&poolMask:][:recordBytes]); err != nil {
			return err
		}
	}
	return nil
}

func (c *txnClient) do(pos uint64) (int, error) {
	c.base = pos * writesPerTxn
	return kindPut, c.t.db.Exec(c.fn)
}

func (t *txnTarget) client(i int) func(pos uint64) (int, error) {
	c := &txnClient{t: t, ids: t.ids[i]}
	c.fn = c.body
	return c.do
}

// open creates the database in dir with the preload (asynchronous
// commit) policy.
func (t *txnTarget) open(dir string) error {
	t.dir = dir
	db, err := mmdb.Open(t.sp.config(dir, true, false))
	t.db = db
	return err
}

// preload writes every record once, in ID order, through the same
// five-write transactions the timed phase commits.
func (t *txnTarget) preload() error {
	var base uint64
	fn := func(tx *mmdb.Txn) error {
		for j := uint64(0); j < writesPerTxn; j++ {
			if err := tx.Write(base+j, t.pool[(base+j)&poolMask:][:recordBytes]); err != nil {
				return err
			}
		}
		return nil
	}
	for base = 0; base < uint64(t.sp.records); base += writesPerTxn {
		if base+writesPerTxn > uint64(t.sp.records) {
			base = uint64(t.sp.records) - writesPerTxn
		}
		if err := t.db.Exec(fn); err != nil {
			return err
		}
	}
	return nil
}

func (t *txnTarget) checkpoint() error {
	_, err := t.db.Checkpoint()
	return err
}

// reopen closes the preloaded database and recovers it under the
// workload's own commit policy.
func (t *txnTarget) reopen() error {
	if err := t.db.Close(); err != nil {
		return err
	}
	_, err := t.recover()
	return err
}

func (t *txnTarget) startCheckpoints() { t.db.StartCheckpointLoop() }
func (t *txnTarget) stopCheckpoints()  { t.db.StopCheckpointLoop() }
func (t *txnTarget) beginTail()        {}

func (t *txnTarget) engines() []*mmdb.DB { return []*mmdb.DB{t.db} }

// crash drops the engine's volatile state, and the reference to the
// engine with it, so its memory can be collected before the recovery.
func (t *txnTarget) crash() error {
	db := t.db
	t.db = nil
	return db.Crash()
}

func (t *txnTarget) recover() (recoveryPhases, error) {
	began := time.Now()
	db, rep, err := mmdb.Recover(t.sp.config(t.dir, false, t.traced))
	if err != nil {
		return recoveryPhases{}, err
	}
	t.db = db
	ph := phasesOf(rep)
	ph.total = time.Since(began)
	return ph, nil
}

// verify reads back every record the oracle saw written and counts the
// ones that do not hold the last value written.
func (t *txnTarget) verify(o oracle) (checked, bad int, err error) {
	buf := make([]byte, recordBytes)
	for rid, p := range o {
		if p == 0 {
			continue
		}
		if err := t.db.ReadRecordInto(uint64(rid), buf); err != nil {
			return checked, bad, fmt.Errorf("verify record %d: %w", rid, err)
		}
		checked++
		if !bytes.Equal(buf, t.pool[uint64(p-1)&poolMask:][:recordBytes]) {
			bad++
		}
	}
	return checked, bad, nil
}

// record adds the writes of ops [from, to) of client to the oracle.
func (t *txnTarget) record(o oracle, client int, from, to uint64) {
	ids := t.ids[client]
	for p := from * writesPerTxn; p < to*writesPerTxn; p++ {
		o[ids[p&streamMask]] = uint32(p + 1)
	}
}

func (t *txnTarget) oracleSize() int { return t.sp.records }

func (t *txnTarget) routedOps() []float64 { return nil }
func (t *txnTarget) wire() wireCounts     { return wireCounts{} }

func (t *txnTarget) close() error {
	if t.db == nil {
		return nil
	}
	return t.db.Close()
}
