package testbed

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mmdb"
	"mmdb/internal/backup"
	"mmdb/internal/faultfs"
)

// matrixCell is one (crash point, fault kind) combination of the matrix.
type matrixCell struct {
	point faultfs.Point
	kind  faultfs.Kind
}

// matrixCells returns the cells of the matrix at one checkpoint/recovery
// pipeline width. Width 1 covers every named crash point on the write
// path, with torn writes where the operation carries a payload and
// transient I/O errors on the two hottest points, plus the worker-0 point
// (a one-slot batch runs on the coordinator, worker 0). The 4-worker pool
// is armed at the worker-1 point — which can only fire if the pool really
// fans out — and at backup.write, where several workers now write the
// target copy concurrently.
func matrixCells(short bool, par int) []matrixCell {
	if par > 1 {
		return []matrixCell{
			{faultfs.PointCheckpointSegWorker(1), faultfs.Crash},
			{"backup.write", faultfs.Crash},
			{"backup.write", faultfs.Torn},
		}
	}
	cells := []matrixCell{
		{"wal.write", faultfs.Crash},
		{"wal.sync", faultfs.Crash},
		{"wal.rename", faultfs.Crash},
		{"backup.write", faultfs.Crash},
		{"backup.sync", faultfs.Crash},
		{"backup.meta.write", faultfs.Crash},
		{"backup.meta.rename", faultfs.Crash},
		{faultfs.PointCheckpointSeg, faultfs.Crash},
		{faultfs.PointCheckpointSegWorker(0), faultfs.Crash},
		{"wal.write", faultfs.Torn},
		{"backup.write", faultfs.Torn},
	}
	if !short {
		cells = append(cells,
			matrixCell{"backup.meta.write", faultfs.Torn},
			matrixCell{"wal.write", faultfs.ErrIO},
			matrixCell{"backup.write", faultfs.ErrIO},
			matrixCell{"backup.sync", faultfs.ErrIO},
		)
	}
	return cells
}

// crashMatrixSeeds returns the seeds each cell runs with.
func crashMatrixSeeds(short bool) []int64 {
	if short {
		return []int64{1}
	}
	return []int64{1, 2, 3}
}

// TestCrashMatrix is the standing correctness gate: every checkpoint
// algorithm × {serial, 4-worker} pipeline × every named crash point must
// recover to the committed-transaction oracle. Each cell prints its seed
// on failure; re-run a single cell with -run 'TestCrashMatrix/<name>'.
func TestCrashMatrix(t *testing.T) {
	for _, alg := range mmdb.Algorithms {
		for _, par := range []int{1, 4} {
			for _, cell := range matrixCells(testing.Short(), par) {
				if alg == mmdb.FastFuzzy && (cell.point == "wal.write" || cell.point == "wal.sync" || cell.point == "wal.rename") {
					// FASTFUZZY models a stable log tail: log writes survive
					// the crash by definition, so wal faults cannot fire
					// meaningfully (the class is halt-exempt).
					continue
				}
				for _, seed := range crashMatrixSeeds(testing.Short()) {
					name := fmt.Sprintf("%v/par%d/%s/%v/seed%d", alg, par, cell.point, cell.kind, seed)
					alg, par, cell, seed := alg, par, cell, seed
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						rep, err := RunCrash(CrashScenario{
							Algorithm:   alg,
							Point:       cell.point,
							Kind:        cell.kind,
							Seed:        seed,
							Dir:         t.TempDir(),
							Parallelism: par,
						})
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if cell.kind != faultfs.ErrIO && !rep.Crashed {
							t.Fatalf("seed %d: fault never fired", seed)
						}
						t.Logf("seed %d: acked=%d inDoubt=%d recoveredWithInDoubt=%v fired=%+v torn=%dB",
							seed, rep.Acked, rep.InDoubt, rep.RecoveredWithInDoubt,
							rep.Fired, rep.Recovery.TornTailBytes)
					})
				}
			}
		}
	}
}

// TestCrashGenesis crashes the very first write to a fresh database (the
// log file header) and checks that recovery yields the empty database.
func TestCrashGenesis(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(7)
	inj.Arm(faultfs.Rule{Point: "wal.write", Kind: faultfs.Crash, AtHit: 1})
	cfg := mmdb.Config{
		Dir: dir, NumRecords: 64, RecordBytes: 32,
		Algorithm: mmdb.FuzzyCopy, SyncCommit: true,
		FS: inj.FS(nil),
	}
	if _, err := mmdb.Open(cfg); !errors.Is(err, faultfs.ErrInjectedCrash) {
		t.Fatalf("Open = %v, want ErrInjectedCrash", err)
	}
	rcfg := cfg
	rcfg.FS = nil
	db, rep, err := mmdb.Recover(rcfg)
	if err != nil {
		t.Fatalf("genesis recovery: %v", err)
	}
	defer db.Close()
	if rep.UsedCheckpoint || rep.UpdatesApplied != 0 {
		t.Fatalf("genesis recovery applied state: %+v", rep)
	}
	got, err := db.ReadRecord(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("genesis recovery produced non-zero records")
		}
	}
}

// TestCrashGenesisTornHeader simulates a sub-sector torn header write — a
// log file shorter than its header — and checks recovery treats it as the
// empty log (regression for the ErrBadHeader recovery path).
func TestCrashGenesisTornHeader(t *testing.T) {
	dir := t.TempDir()
	// Fresh metadata with no complete checkpoint, as a crashed Open
	// leaves it.
	bs, err := backup.Open(dir, 1, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "redo.log"), []byte("MMDBWAL1")[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	db, rep, err := mmdb.Recover(mmdb.Config{
		Dir: dir, NumRecords: 64, RecordBytes: 32,
		Algorithm: mmdb.FuzzyCopy,
	})
	if err != nil {
		t.Fatalf("torn-header recovery: %v", err)
	}
	defer db.Close()
	if rep.UsedCheckpoint || rep.RecordsScanned != 0 {
		t.Fatalf("torn-header recovery scanned state: %+v", rep)
	}
	// The reset log must accept new work.
	if err := db.Exec(func(tx *mmdb.Txn) error { return tx.Write(1, []byte("x")) }); err != nil {
		t.Fatal(err)
	}
}

// TestCrashTransientIOResolvesInDoubt drives the in-doubt commit path
// directly: a single transient flush failure leaves one commit in doubt,
// and the next successful commit confirms it durable.
func TestCrashTransientIOResolvesInDoubt(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(11)
	// Hit 1 is the header; hit 2 is the first commit's flush.
	inj.Arm(faultfs.Rule{Point: "wal.write", Kind: faultfs.ErrIO, AtHit: 2})
	cfg := mmdb.Config{
		Dir: dir, NumRecords: 64, RecordBytes: 32,
		Algorithm: mmdb.FuzzyCopy, SyncCommit: true,
		FS: inj.FS(nil),
	}
	db, err := mmdb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(3, []byte("doubtful")); err != nil {
		t.Fatal(err)
	}
	cerr := tx.Commit()
	if !errors.Is(cerr, mmdb.ErrCommitInDoubt) || !errors.Is(cerr, faultfs.ErrInjectedIO) {
		t.Fatalf("Commit = %v, want ErrCommitInDoubt wrapping ErrInjectedIO", cerr)
	}
	// The in-doubt transaction must be installed in memory (it may prove
	// durable), not rolled back.
	got, err := db.ReadRecord(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:8]) != "doubtful" {
		t.Fatalf("in-doubt txn not installed: %q", got[:8])
	}
	// A following commit's successful flush covers the in-doubt record.
	if err := db.Exec(func(tx *mmdb.Txn) error { return tx.Write(4, []byte("confirm")) }); err != nil {
		t.Fatalf("confirming txn: %v", err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.FS = nil
	rdb, _, err := mmdb.Recover(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	for rid, want := range map[uint64]string{3: "doubtful", 4: "confirm"} {
		got, err := rdb.ReadRecord(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:len(want)]) != want {
			t.Fatalf("record %d = %q, want %q", rid, got[:len(want)], want)
		}
	}
}

// TestCommitInDoubtNoAbortRecord is the regression test for the phantom-
// commit bug: Commit used to append an abort record when the durability
// wait failed, after the commit record was already in the log. If the
// commit record was in fact durable, recovery replayed the transaction
// while the engine had rolled it back — memory and disk diverged.
func TestCommitInDoubtNoAbortRecord(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(13)
	inj.Arm(faultfs.Rule{Point: "wal.write", Kind: faultfs.ErrIO, AtHit: 2})
	cfg := mmdb.Config{
		Dir: dir, NumRecords: 64, RecordBytes: 32,
		Algorithm: mmdb.FuzzyCopy, SyncCommit: true,
		FS: inj.FS(nil),
	}
	db, err := mmdb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(5, []byte("phantom")); err != nil {
		t.Fatal(err)
	}
	if cerr := tx.Commit(); !errors.Is(cerr, mmdb.ErrCommitInDoubt) {
		t.Fatalf("Commit = %v, want ErrCommitInDoubt", cerr)
	}
	// Close flushes the tail: commit record durable, and crucially no
	// abort record after it.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.FS = nil
	rdb, rep, err := mmdb.Recover(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if rep.TxnsReplayed != 1 {
		t.Fatalf("replayed %d txns, want 1 (the in-doubt commit)", rep.TxnsReplayed)
	}
	got, err := rdb.ReadRecord(5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "phantom" {
		t.Fatalf("in-doubt committed txn lost: %q", got[:7])
	}
}
