package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mmdb/internal/backup"
)

// TestOpenBackupHookMemStore runs a full checkpoint → crash → recover
// cycle entirely against an in-memory backup store supplied through the
// Params.OpenBackup seam, over every algorithm: the checkpointers and
// recovery must behave identically no matter what stands behind
// backup.Store.
func TestOpenBackupHookMemStore(t *testing.T) {
	for _, alg := range AllAlgorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			// One MemStore per subtest, shared between Open and Recover:
			// it plays the surviving disk across the crash.
			var mem *backup.MemStore
			p := testParams(t, alg)
			p.OpenBackup = func(_ string, numSegments, segmentBytes int) (backup.Store, error) {
				if mem == nil {
					var err error
					mem, err = backup.NewMemStore(numSegments, segmentBytes)
					if err != nil {
						return nil, err
					}
				}
				return mem, nil
			}

			e := mustOpen(t, p)
			for rid := uint64(0); rid < 64; rid++ {
				if err := e.ExecWrite(rid, encVal(rid*3+1)); err != nil {
					t.Fatalf("ExecWrite(%d): %v", rid, err)
				}
			}
			if _, err := e.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			// Post-checkpoint writes survive only through the WAL.
			for rid := uint64(0); rid < 32; rid++ {
				if err := e.ExecWrite(rid, encVal(rid*7+5)); err != nil {
					t.Fatalf("ExecWrite(%d): %v", rid, err)
				}
			}
			if err := e.Crash(); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			if mem == nil {
				t.Fatal("OpenBackup hook was never called")
			}
			if st := mem.Stats(); st.SegmentWrites == 0 {
				t.Fatal("checkpoint wrote no segments through the MemStore")
			}

			e2, rep, err := Recover(p)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer e2.Close()
			if !rep.UsedCheckpoint {
				t.Error("recovery ignored the MemStore checkpoint")
			}
			for rid := uint64(0); rid < 64; rid++ {
				want := rid*3 + 1
				if rid < 32 {
					want = rid*7 + 5
				}
				if got := readVal(t, e2, rid); got != want {
					t.Errorf("record %d = %d, want %d", rid, got, want)
				}
			}
		})
	}
}

// failOnceStore is a backup.Store whose next WriteSegment after arming
// fails without touching the slot — a transient I/O error.
type failOnceStore struct {
	backup.Store
	armed atomic.Bool
}

var errInjectedWrite = errors.New("injected segment write failure")

func (s *failOnceStore) WriteSegment(copyIdx, idx int, ckptID uint64, data []byte) error {
	if s.armed.CompareAndSwap(true, false) {
		return errInjectedWrite
	}
	return s.Store.WriteSegment(copyIdx, idx, ckptID, data)
}

// TestFailedFlushKeepsSegmentDirty is the regression test for the
// dirty-bit data loss: a sweep clears Dirty[target] when it secures a
// segment, so a segment write that then fails must set the bit again.
// Otherwise the following partial checkpoints skip the segment, seal its
// stale slot into a complete copy, and compact away the log records that
// could have repaired it — committed updates vanish at the next crash.
func TestFailedFlushKeepsSegmentDirty(t *testing.T) {
	for _, alg := range AllAlgorithms() {
		for _, par := range []int{1, 2} {
			alg, par := alg, par
			t.Run(fmt.Sprintf("%v/par%d", alg, par), func(t *testing.T) {
				var store *failOnceStore
				p := parallelParams(t, alg, par)
				p.OpenBackup = func(dir string, numSegments, segmentBytes int) (backup.Store, error) {
					fs, err := backup.Open(dir, numSegments, segmentBytes)
					store = &failOnceStore{Store: fs}
					return store, err
				}
				e := mustOpen(t, p)
				writeAll := func(mul, add uint64) {
					t.Helper()
					for rid := uint64(0); rid < 64; rid++ {
						if err := e.ExecWrite(rid, encVal(rid*mul+add)); err != nil {
							t.Fatalf("ExecWrite(%d): %v", rid, err)
						}
					}
				}
				checkpoint := func() {
					t.Helper()
					if _, err := e.Checkpoint(); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
				}

				writeAll(3, 1)
				checkpoint() // copy 0 complete
				checkpoint() // copy 1 complete
				writeAll(7, 5)
				store.armed.Store(true)
				if _, err := e.Checkpoint(); !errors.Is(err, errInjectedWrite) {
					t.Fatalf("Checkpoint with a failing segment write = %v, want the injected error", err)
				}
				// Same copy, other copy, same copy again: by now the slot
				// the failed write left stale sits in the newest complete
				// copy and the log before it is compacted.
				checkpoint()
				checkpoint()
				checkpoint()
				if err := e.Crash(); err != nil {
					t.Fatalf("Crash: %v", err)
				}

				e2, _, err := Recover(p)
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				defer e2.Close()
				for rid := uint64(0); rid < 64; rid++ {
					if got, want := readVal(t, e2, rid), rid*7+5; got != want {
						t.Errorf("record %d = %d, want %d", rid, got, want)
					}
				}
			})
		}
	}
}

// TestCheckpointStaggerStopsPromptly pins the stagger wait's stop path:
// a loop parked in its phase-shift delay must exit on StopCheckpointLoop
// immediately, not after the (possibly long) stagger elapses.
func TestCheckpointStaggerStopsPromptly(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.CheckpointStagger = time.Hour
	e := mustOpen(t, p)
	defer e.Close()

	e.StartCheckpointLoop()
	done := make(chan struct{})
	// goleak:joins the test receives on done below
	go func() {
		e.StopCheckpointLoop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("StopCheckpointLoop hung in the stagger wait")
	}
	if got := e.Stats().Checkpoints; got != 0 {
		t.Errorf("a staggered loop checkpointed %d times before its delay", got)
	}
}
