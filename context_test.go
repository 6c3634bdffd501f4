package mmdb

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countdownCtx is a live context whose Err starts reporting cancellation
// once it has been consulted left times: a cancellation delivered at an
// exact point of whatever is polling it.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestConfigValidate: Validate reports the same errors Open would,
// without touching the filesystem.
func TestConfigValidate(t *testing.T) {
	cfg := testConfig(t, FuzzyCopy)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	bad := cfg
	bad.Dir = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty Dir accepted")
	}
	bad = cfg
	bad.Algorithm = Algorithm(42)
	if err := bad.Validate(); err == nil {
		t.Error("unknown algorithm accepted")
	}
	bad = cfg
	bad.CheckpointParallelism = -3
	if err := bad.Validate(); err == nil {
		t.Error("negative CheckpointParallelism accepted")
	}
	bad = cfg
	bad.RecoveryParallelism = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative RecoveryParallelism accepted")
	}
	bad = cfg
	bad.Algorithm = FastFuzzy
	bad.StableLogTail = false
	if err := bad.Validate(); err == nil {
		t.Error("FASTFUZZY without a stable log tail accepted")
	}
}

// TestParseAlgorithmErrorListsNames: the public parser's error enumerates
// all eight valid names.
func TestParseAlgorithmErrorListsNames(t *testing.T) {
	_, err := ParseAlgorithm("SLOWCOPY")
	if err == nil {
		t.Fatal("unknown algorithm name parsed")
	}
	for _, a := range Algorithms {
		if !strings.Contains(err.Error(), a.String()) {
			t.Errorf("error %q does not list %v", err, a)
		}
	}
}

// TestDBExecContext: the context-aware transaction API refuses cancelled
// contexts and otherwise behaves like Exec.
func TestDBExecContext(t *testing.T) {
	db, err := Open(testConfig(t, FuzzyCopy))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = db.ExecContext(ctx, func(tx *Txn) error { return tx.Write(1, []byte("no")) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecContext(cancelled) = %v, want context.Canceled", err)
	}

	if err := db.ExecContext(context.Background(), func(tx *Txn) error {
		return tx.Write(1, []byte("yes"))
	}); err != nil {
		t.Fatal(err)
	}
	got, err := db.ReadRecord(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:3]) != "yes" {
		t.Errorf("read back %q", got[:3])
	}
}

// TestDBCheckpointContext: CheckpointContext is cancellable up front and
// completes normally with a live context.
func TestDBCheckpointContext(t *testing.T) {
	cfg := testConfig(t, FuzzyCopy)
	cfg.CheckpointParallelism = 4
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Exec(func(tx *Txn) error { return tx.Write(0, []byte("x")) }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.CheckpointContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckpointContext(cancelled) = %v, want context.Canceled", err)
	}
	res, err := db.CheckpointContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsFlushed == 0 {
		t.Error("checkpoint flushed nothing")
	}
}

// TestDBRecoverContext: recovery is cancellable up front, between phases
// and between log windows, and a cancelled recovery leaves the directory
// recoverable — RecoverContext(Background) afterwards behaves exactly
// like Recover (which is defined as RecoverContext with
// context.Background()).
func TestDBRecoverContext(t *testing.T) {
	cfg := testConfig(t, FuzzyCopy)
	cfg.RecoveryParallelism = 4
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(func(tx *Txn) error { return tx.Write(9, []byte("pre")) }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(func(tx *Txn) error { return tx.Write(11, []byte("post")) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RecoverContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecoverContext(cancelled) = %v, want context.Canceled", err)
	}
	if _, _, err := OpenOrRecoverContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("OpenOrRecoverContext(cancelled) = %v, want context.Canceled", err)
	}

	// A cancelled recovery must not have consumed the directory.
	db2, rep, err := RecoverContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !rep.UsedCheckpoint || rep.Parallelism != 4 {
		t.Fatalf("recovery report = %+v", rep)
	}
	for rid, want := range map[uint64]string{9: "pre", 11: "post"} {
		got, err := db2.ReadRecord(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:len(want)]) != want {
			t.Errorf("record %d = %q, want %q", rid, got[:len(want)], want)
		}
	}

	// Cancellation in mid-scan. Behind the checkpoint goes a log of several
	// scan windows, so both log passes poll ctx repeatedly — per window,
	// and per batch routed to the redo workers — rather than per record.
	if err := db2.Crash(); err != nil {
		t.Fatal(err)
	}
	db3, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, cfg.RecordBytes)
	const rounds = 48 // × 512 records × 97-byte frames: over two 1 MiB windows
	for round := 1; round <= rounds; round++ {
		val[0] = byte(round)
		if err := db3.Exec(func(tx *Txn) error {
			for rid := 0; rid < cfg.NumRecords; rid++ {
				if err := tx.Write(uint64(rid), val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db3.Crash(); err != nil {
		t.Fatal(err)
	}

	// One full recovery under a context that never cancels counts the
	// polls; cancelling at each of them in turn must stop recovery there.
	probe := newCountdownCtx(math.MaxInt64)
	db4, rep, err := RecoverContext(probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db4.Crash(); err != nil {
		t.Fatal(err)
	}
	polls := math.MaxInt64 - probe.left.Load()
	records := int64(rep.RecordsScanned)
	if rep.LogBytesRead < 2<<20 || polls < 8 || polls > records/10 {
		t.Fatalf("recovery of %d records (%d log bytes) polled ctx %d times; want once per window and batch, not per record",
			records, rep.LogBytesRead, polls)
	}
	t.Logf("recovery of %d log records polled ctx %d times", records, polls)
	goroutines := runtime.NumGoroutine()
	for n := int64(0); n < polls; n++ {
		if _, _, err := RecoverContext(newCountdownCtx(n), cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("RecoverContext cancelled at poll %d of %d = %v, want context.Canceled", n, polls, err)
		}
	}
	// Every cancelled recovery joined its redo workers before returning.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines+2; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d over %d cancelled recoveries", goroutines, runtime.NumGoroutine(), polls)
		}
		time.Sleep(10 * time.Millisecond)
	}

	db5, rep5, err := Recover(cfg)
	if err != nil {
		t.Fatalf("Recover after cancelled recoveries: %v", err)
	}
	defer db5.Close()
	if rep5.RecordsScanned != rep.RecordsScanned || rep5.UpdatesApplied != rep.UpdatesApplied {
		t.Errorf("recovery after cancellations scanned %d and applied %d, the uncancelled one %d and %d",
			rep5.RecordsScanned, rep5.UpdatesApplied, rep.RecordsScanned, rep.UpdatesApplied)
	}
	for _, rid := range []uint64{0, 9, 11, uint64(cfg.NumRecords - 1)} {
		got, err := db5.ReadRecord(rid)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(rounds) {
			t.Errorf("record %d = %d after recovery, want round %d", rid, got[0], rounds)
		}
	}
}

// TestOpenOrRecoverContextFreshDir: the open path is not cancellable, so
// a cancelled ctx still opens a fresh database.
func TestOpenOrRecoverContextFreshDir(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db, rep, err := OpenOrRecoverContext(ctx, testConfig(t, COUCopy))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if rep != nil {
		t.Errorf("fresh open produced a recovery report: %+v", rep)
	}
}
