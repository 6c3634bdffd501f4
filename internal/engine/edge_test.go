package engine

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestWriteSameRecordTwice: the last write in a transaction wins, in the
// primary database and across recovery (log order replay).
func TestWriteSameRecordTwice(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	e := mustOpen(t, p)
	err := e.Exec(func(tx *Txn) error {
		if err := tx.Write(4, encVal(1)); err != nil {
			return err
		}
		if err := tx.Write(4, encVal(2)); err != nil {
			return err
		}
		v, err := tx.Read(4)
		if err != nil {
			return err
		}
		if decVal(v) != 2 {
			t.Errorf("own second write not visible: %d", decVal(v))
		}
		return tx.Write(4, encVal(3))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := readVal(t, e, 4); v != 3 {
		t.Fatalf("installed %d, want 3", v)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, _, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if v := readVal(t, e2, 4); v != 3 {
		t.Errorf("recovered %d, want 3 (replay must honor log order)", v)
	}
}

// TestConcurrentCheckpointCallsSerialize: simultaneous Checkpoint calls
// queue rather than interleave, and both complete.
func TestConcurrentCheckpointCallsSerialize(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	if err := e.Exec(func(tx *Txn) error { return tx.Write(0, encVal(1)) }); err != nil {
		t.Fatal(err)
	}
	const n = 4
	var wg sync.WaitGroup
	ids := make(chan uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Checkpoint()
			if err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			ids <- res.ID
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[uint64]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate checkpoint ID %d", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct checkpoints, want %d", len(seen), n)
	}
}

// TestReadRecordBounds: out-of-range non-transactional reads error.
func TestReadRecordBounds(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	buf := make([]byte, e.RecordBytes())
	if err := e.ReadRecord(uint64(e.NumRecords()), buf); err == nil {
		t.Error("out-of-range ReadRecord succeeded")
	}
}

// TestReadOutOfRangeInTxn: a transactional read of a bad record ID aborts
// the transaction.
func TestReadOutOfRangeInTxn(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(1 << 40); err == nil {
		t.Error("out-of-range read succeeded")
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("txn should be aborted: %v", err)
	}
}

// TestEmptyTransactionCommit: a read-only or empty transaction commits
// without touching the log.
func TestEmptyTransactionCommit(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	before := e.Stats().LogAppends
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := e.Stats().LogAppends; after != before {
		t.Errorf("read-only commit appended %d log records", after-before)
	}
}

// TestAbortWithoutWritesLogsNothing: aborting a transaction that never
// logged leaves no trace.
func TestAbortWithoutWritesLogsNothing(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	before := e.Stats().LogAppends
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if after := e.Stats().LogAppends; after != before {
		t.Error("empty abort wrote to the log")
	}
}

// TestCOUOldCopyPeakAccounting: the high-water mark of preserved old
// versions is tracked (the paper's warning that the snapshot buffer can
// grow).
func TestCOUOldCopyPeakAccounting(t *testing.T) {
	p := testParams(t, COUCopy)
	hook := newPauseHook(0)
	p.SegmentHook = hook.fn
	e := mustOpen(t, p)
	defer e.Close()

	// Dirty several later segments before the checkpoint.
	for i := 0; i < 4; i++ {
		if err := e.Exec(func(tx *Txn) error {
			return tx.Write(uint64(8*(i+2)), encVal(1))
		}); err != nil {
			t.Fatal(err)
		}
	}
	hook.armed = true
	done := make(chan error, 1)
	go func() {
		_, err := e.Checkpoint()
		done <- err
	}()
	<-hook.paused
	// Update three not-yet-dumped segments: three old copies live at once.
	for i := 0; i < 3; i++ {
		if err := e.Exec(func(tx *Txn) error {
			return tx.Write(uint64(8*(i+2)), encVal(2))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if live := e.Stats().COULiveOld; live != 3 {
		t.Errorf("COULiveOld = %d, want 3", live)
	}
	close(hook.resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.COUPeakOld < 3 {
		t.Errorf("COUPeakOld = %d, want >= 3", st.COUPeakOld)
	}
	if st.COULiveOld != 0 {
		t.Errorf("COULiveOld = %d after checkpoint", st.COULiveOld)
	}
}

// TestDirtySegmentsCount tracks the per-copy dirty population.
func TestDirtySegmentsCount(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()
	if n := e.DirtySegments(0); n != 0 {
		t.Fatalf("fresh database has %d dirty segments", n)
	}
	// Dirty two segments.
	if err := e.Exec(func(tx *Txn) error {
		if err := tx.Write(0, encVal(1)); err != nil {
			return err
		}
		return tx.Write(16, encVal(1))
	}); err != nil {
		t.Fatal(err)
	}
	if n := e.DirtySegments(0); n != 2 {
		t.Errorf("DirtySegments(0) = %d, want 2", n)
	}
	if n := e.DirtySegments(1); n != 2 {
		t.Errorf("DirtySegments(1) = %d, want 2", n)
	}
	if _, err := e.Checkpoint(); err != nil { // copy 0
		t.Fatal(err)
	}
	if n := e.DirtySegments(0); n != 0 {
		t.Errorf("after checkpoint DirtySegments(0) = %d", n)
	}
	if n := e.DirtySegments(1); n != 2 {
		t.Errorf("after checkpoint DirtySegments(1) = %d, want 2 (other copy still stale)", n)
	}
	if e.DirtySegments(-1) != 0 || e.DirtySegments(2) != 0 {
		t.Error("out-of-range copy indexes should count zero")
	}
}

// TestDirtyFractionTriggersEarlyCheckpoint: with a long interval but a low
// dirty threshold, the loop checkpoints as soon as the threshold crosses.
func TestDirtyFractionTriggersEarlyCheckpoint(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.CheckpointInterval = time.Hour // never reached in this test
	p.CheckpointDirtyFraction = 0.1  // 32 segments → threshold 3
	e := mustOpen(t, p)
	defer e.Close()
	e.StartCheckpointLoop()
	defer e.StopCheckpointLoop()
	// The loop's first checkpoint happens immediately; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Checkpoints < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first checkpoint never ran")
		}
		time.Sleep(time.Millisecond)
	}
	// Dirty 4 segments (≥ threshold): a second checkpoint must follow
	// long before the hour elapses.
	if err := e.Exec(func(tx *Txn) error {
		for s := 0; s < 4; s++ {
			if err := tx.Write(uint64(8*s), encVal(9)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for e.Stats().Checkpoints < 2 {
		if time.Now().After(deadline) {
			t.Fatal("dirty threshold did not trigger an early checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBadDirtyFractionRejected validates the new parameter.
func TestBadDirtyFractionRejected(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.CheckpointDirtyFraction = 1.5
	if _, err := Open(p); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

// TestBeginAfterCrashFails and other post-crash API behavior.
func TestBeginAfterCrashFails(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Begin(); !errors.Is(err, ErrStopped) {
		t.Errorf("Begin after crash: %v", err)
	}
	if err := e.Crash(); !errors.Is(err, ErrStopped) {
		t.Errorf("second Crash: %v", err)
	}
}

// TestInFlightTxnFailsAcrossCrash: a transaction straddling a crash gets
// clean errors, not corruption.
func TestInFlightTxnFailsAcrossCrash(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(1, encVal(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(2, encVal(2)); !errors.Is(err, ErrStopped) {
		t.Errorf("write after crash: %v", err)
	}
}

// TestRecoverFreshDirFails: Recover needs something to recover.
func TestRecoverFreshDirFails(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	if _, _, err := Recover(p); err == nil {
		t.Error("Recover of an empty directory succeeded")
	}
}

// TestSegmentHookRunsPerSecuredSegment: the fault-injection hook fires by
// one rule for every algorithm — once per segment the scan secures, in
// scan order, whether the partial checkpoint flushed the segment or found
// it clean — and the sweep's pool metrics are observed by the same rule.
func TestSegmentHookRunsPerSecuredSegment(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			var calls []int
			p := testParams(t, alg)
			p.SegmentHook = func(_ uint64, _, segIdx int) error {
				calls = append(calls, segIdx)
				return nil
			}
			e := mustOpen(t, p)
			defer e.Close()
			if err := e.Exec(func(tx *Txn) error {
				if err := tx.Write(0, encVal(1)); err != nil { // segment 0
					return err
				}
				return tx.Write(16, encVal(1)) // segment 2
			}); err != nil {
				t.Fatal(err)
			}
			res, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if res.SegmentsFlushed != 2 {
				t.Errorf("SegmentsFlushed = %d, want 2", res.SegmentsFlushed)
			}
			n := e.store.NumSegments()
			if len(calls) != n {
				t.Fatalf("hook fired %d times, want once per segment (%d): %v", len(calls), n, calls)
			}
			for i, c := range calls {
				if c != i {
					t.Fatalf("hook calls = %v, want scan order 0..%d", calls, n-1)
				}
			}
			// The driver observes the pool metrics at every width: here n
			// batches of one slot each.
			if got := e.eo.ckptBatchH.Count(); got != uint64(n) {
				t.Errorf("mmdb_ckpt_worker_batch_segments count = %d, want %d", got, n)
			}
			if got := e.eo.ckptWorkerH.Count(); got != uint64(n) {
				t.Errorf("mmdb_ckpt_worker_flush_seconds count = %d, want %d", got, n)
			}
		})
	}
}
