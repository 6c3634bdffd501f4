package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mmdb/internal/backup"
)

// pauseHook blocks the checkpointer after it finishes a chosen segment,
// letting a test interleave transactions with a half-done checkpoint.
type pauseHook struct {
	pauseAfter int           // segment index to pause after
	paused     chan struct{} // closed when the checkpointer parks
	resume     chan struct{} // test closes to release it
	armed      bool
}

func newPauseHook(after int) *pauseHook {
	return &pauseHook{
		pauseAfter: after,
		paused:     make(chan struct{}),
		resume:     make(chan struct{}),
	}
}

func (h *pauseHook) fn(_ uint64, _, segIdx int) error {
	if h.armed && segIdx == h.pauseAfter {
		h.armed = false
		close(h.paused)
		<-h.resume
	}
	return nil
}

// TestTwoColorConflictAborts pauses a two-color checkpoint after it paints
// segment 0 black and lets a transaction touch segment 0 (black) and the
// last segment (white): the access must abort with ErrCheckpointConflict.
func TestTwoColorConflictAborts(t *testing.T) {
	for _, alg := range []Algorithm{TwoColorFlush, TwoColorCopy} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			hook := newPauseHook(0)
			p := testParams(t, alg)
			p.Full = true // ensure segment 0 is processed (and painted)
			p.SegmentHook = hook.fn
			e := mustOpen(t, p)
			defer e.Close()

			hook.armed = true
			ckptErr := make(chan error, 1)
			go func() {
				_, err := e.Checkpoint()
				ckptErr <- err
			}()
			select {
			case <-hook.paused:
			case <-time.After(5 * time.Second):
				t.Fatal("checkpointer never reached segment 0")
			}

			lastRec := uint64(e.NumRecords() - 1) // in the last (white) segment
			tx, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Read(0); err != nil { // black
				t.Fatalf("read black record: %v", err)
			}
			_, err = tx.Read(lastRec) // white → mixed → abort
			if !errors.Is(err, ErrCheckpointConflict) {
				t.Fatalf("mixed-color access error = %v, want ErrCheckpointConflict", err)
			}
			if st := e.Stats(); st.ColorRestarts != 1 {
				t.Errorf("ColorRestarts = %d, want 1", st.ColorRestarts)
			}

			// A single-color transaction is unaffected.
			tx2, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx2.Read(0); err != nil {
				t.Fatalf("black-only read: %v", err)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}

			close(hook.resume)
			if err := <-ckptErr; err != nil {
				t.Fatalf("checkpoint: %v", err)
			}

			// After the checkpoint, mixing the same segments is fine again.
			err = e.Exec(func(tx *Txn) error {
				if _, err := tx.Read(0); err != nil {
					return err
				}
				_, err := tx.Read(lastRec)
				return err
			})
			if err != nil {
				t.Fatalf("post-checkpoint access: %v", err)
			}
		})
	}
}

// TestTwoColorWriterBlocksCheckpointer verifies the lock interplay of Pu's
// algorithm at both pipeline widths: a segment with an in-flight writer
// cannot be processed until the writer commits (the checkpointer's shared
// segment lock conflicts with the writer's intention-exclusive lock), and
// per Figure 3.1 the checkpointer passes over it — securing every other
// white segment first — and blocks on it only when nothing else is left.
func TestTwoColorWriterBlocksCheckpointer(t *testing.T) {
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			p := parallelParams(t, TwoColorFlush, par)
			p.Full = true
			e := mustOpen(t, p)
			defer e.Close()

			tx, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(0, encVal(1)); err != nil { // IX on segment 0 until commit
				t.Fatal(err)
			}

			done := make(chan error, 1)
			go func() {
				_, err := e.Checkpoint()
				done <- err
			}()
			others := uint64(e.store.NumSegments() - 1)
			deadline := time.Now().Add(10 * time.Second)
			for e.Stats().SegmentsFlushed < others {
				if time.Now().After(deadline) {
					t.Fatalf("checkpointer flushed %d segments around the held one, want %d",
						e.Stats().SegmentsFlushed, others)
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-done:
				t.Fatalf("checkpoint finished with a writer holding segment 0: %v", err)
			case <-time.After(100 * time.Millisecond):
				// Blocked (or at least not finished), as required.
			}
			if got := e.Stats().SegmentsFlushed; got != others {
				t.Fatalf("SegmentsFlushed = %d with segment 0 held, want %d", got, others)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("checkpoint after commit: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("checkpoint never finished after writer committed")
			}
		})
	}
}

// TestCOUPreservesSnapshot pauses a COU checkpoint after segment 0, then
// commits an update to a later segment. The checkpointer must flush the
// pre-update version (preserved by the updater), keeping the backup
// transaction-consistent as of the checkpoint's begin.
func TestCOUPreservesSnapshot(t *testing.T) {
	for _, alg := range []Algorithm{COUFlush, COUCopy} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			p := testParams(t, alg)
			hook := newPauseHook(0)
			p.SegmentHook = hook.fn
			e := mustOpen(t, p)

			// Pre-checkpoint state: record 100 = 1 (some later segment).
			if err := e.Exec(func(tx *Txn) error { return tx.Write(100, encVal(1)) }); err != nil {
				t.Fatal(err)
			}

			hook.armed = true
			ckptErr := make(chan error, 1)
			go func() {
				_, err := e.Checkpoint()
				ckptErr <- err
			}()
			select {
			case <-hook.paused:
			case <-time.After(5 * time.Second):
				t.Fatal("checkpointer never paused")
			}

			// Update record 100 while the checkpoint is mid-sweep; the
			// transaction must preserve the old version.
			if err := e.Exec(func(tx *Txn) error { return tx.Write(100, encVal(2)) }); err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); st.COUCopies == 0 {
				t.Error("updater made no copy-on-update old version")
			}
			// Primary database shows the new value immediately.
			if v := readVal(t, e, 100); v != 2 {
				t.Errorf("primary value = %d, want 2", v)
			}

			close(hook.resume)
			if err := <-ckptErr; err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if st := e.Stats(); st.COULiveOld != 0 {
				t.Errorf("COULiveOld = %d after checkpoint, want 0", st.COULiveOld)
			}

			// The checkpoint (copy 0) must contain the OLD value 1: crash
			// before the log makes value 2 redo-visible... the log does
			// carry value 2 (SyncCommit), so instead inspect the backup
			// directly.
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			bs, err := backup.Open(p.Dir, e.NumSegments(), p.Storage.SegmentBytes)
			if err != nil {
				t.Fatal(err)
			}
			defer bs.Close()
			copyIdx, info, err := bs.Latest()
			if err != nil {
				t.Fatal(err)
			}
			if info.Algorithm != alg.String() {
				t.Errorf("backup algorithm = %q, want %q", info.Algorithm, alg)
			}
			segIdx := 100 * 32 / p.Storage.SegmentBytes // record 100's segment
			buf := make([]byte, p.Storage.SegmentBytes)
			if _, err := bs.ReadSegment(copyIdx, segIdx, buf); err != nil {
				t.Fatal(err)
			}
			off := (100 * 32) % p.Storage.SegmentBytes
			if got := decVal(buf[off:]); got != 1 {
				t.Errorf("backup holds %d for record 100, want the pre-checkpoint value 1", got)
			}
		})
	}
}

// TestCOUQuiesceDrainsTransactions checks that a COU checkpoint's begin
// waits for in-flight transactions and delays new ones.
func TestCOUQuiesceDrainsTransactions(t *testing.T) {
	p := testParams(t, COUCopy)
	e := mustOpen(t, p)
	defer e.Close()

	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(0, encVal(9)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := e.Checkpoint()
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("COU checkpoint began with an active transaction: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint stuck after quiesce should have released")
	}
	// The committed-before-begin update is part of the snapshot: partial
	// checkpoint flushed exactly one segment.
	if st := e.Stats(); st.SegmentsFlushed != 1 {
		t.Errorf("SegmentsFlushed = %d, want 1", st.SegmentsFlushed)
	}
}

// TestFuzzyTransactionStraddlesCheckpoint builds the paper's motivating
// fuzzy anomaly: a transaction updating records in two segments while the
// checkpointer flushes between the installs. The backup alone is then
// inconsistent, and recovery must repair it from the log (the active-
// transaction list forces the scan back to the transaction's first redo
// record).
func TestFuzzyTransactionStraddlesCheckpoint(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.SyncCommit = false // commit durability comes only from the LSN waits
	hook := newPauseHook(0)
	p.SegmentHook = hook.fn
	e := mustOpen(t, p)

	// Dirty two segments so the sweep will visit both.
	if err := e.Exec(func(tx *Txn) error {
		if err := tx.Write(0, encVal(1)); err != nil { // segment 0
			return err
		}
		return tx.Write(8, encVal(1)) // segment 1
	}); err != nil {
		t.Fatal(err)
	}

	// Start a transaction and log its first update BEFORE the checkpoint
	// begins, so it appears in the active-transaction list.
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(0, encVal(2)); err != nil {
		t.Fatal(err)
	}

	hook.armed = true
	ckptErr := make(chan error, 1)
	go func() {
		_, err := e.Checkpoint()
		ckptErr <- err
	}()
	select {
	case <-hook.paused: // segment 0 already flushed (without tx's update)
	case <-time.After(5 * time.Second):
		t.Fatal("checkpointer never paused")
	}

	// Now the straddling transaction also updates segment 1 and commits;
	// its segment-1 update gets installed before segment 1 is flushed.
	if err := tx.Write(8, encVal(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	close(hook.resume)
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}

	// Crash: the backup is fuzzy (segment 0 pre-update, segment 1 post-
	// update). Recovery must replay the straddler from the log even though
	// its first record precedes the begin-checkpoint marker.
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	p.SegmentHook = nil
	e2, rep, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rep.ScanStartLSN >= rep.LogEndLSN {
		t.Error("scan start should precede log end")
	}
	if v := readVal(t, e2, 0); v != 2 {
		t.Errorf("record 0 = %d, want 2 (straddling txn must be replayed)", v)
	}
	if v := readVal(t, e2, 8); v != 2 {
		t.Errorf("record 8 = %d, want 2", v)
	}
}

// TestCheckpointResultFields sanity-checks the per-checkpoint summary.
func TestCheckpointResultFields(t *testing.T) {
	p := testParams(t, FastFuzzy)
	p.StableTail = true
	e := mustOpen(t, p)
	defer e.Close()
	if err := e.Exec(func(tx *Txn) error { return tx.Write(0, encVal(1)) }); err != nil {
		t.Fatal(err)
	}
	res, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 1 || res.TargetCopy != 0 || res.Algorithm != FastFuzzy {
		t.Errorf("result = %+v", res)
	}
	if res.BytesFlushed != int64(p.Storage.SegmentBytes) {
		t.Errorf("BytesFlushed = %d, want %d", res.BytesFlushed, p.Storage.SegmentBytes)
	}
	if res.EndLSN <= res.BeginLSN {
		t.Errorf("EndLSN %d should follow BeginLSN %d", res.EndLSN, res.BeginLSN)
	}
	res2, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res2.ID != 2 || res2.TargetCopy != 1 {
		t.Errorf("second checkpoint = %+v, want ID 2 target 1", res2)
	}
}
