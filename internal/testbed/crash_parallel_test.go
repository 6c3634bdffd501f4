package testbed

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"mmdb"
)

// copyTree duplicates a flat database directory so the same crashed state
// can be recovered twice independently.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			t.Fatalf("unexpected subdirectory %q in database dir", ent.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveryParallelEquivalence crashes a database mid-life for every
// algorithm, then recovers two copies of the identical on-disk state —
// one with the serial pipeline, one with 4 loader/apply workers — and
// requires byte-identical databases and matching replay accounting.
func TestRecoveryParallelEquivalence(t *testing.T) {
	const (
		records     = 256
		recordBytes = 64
	)
	for _, alg := range mmdb.Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := mmdb.Config{
				Dir:                   dir,
				NumRecords:            records,
				RecordBytes:           recordBytes,
				SegmentBytes:          16 * recordBytes,
				Algorithm:             alg,
				StableLogTail:         alg == mmdb.FastFuzzy,
				SyncCommit:            true,
				CheckpointParallelism: 4,
			}
			db, err := mmdb.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			val := func(i uint64) []byte {
				b := make([]byte, recordBytes)
				binary.LittleEndian.PutUint64(b, i)
				return b
			}
			for i := uint64(0); i < 80; i++ {
				if err := db.Exec(func(tx *mmdb.Txn) error {
					return tx.Write((i*37)%records, val(i+1))
				}); err != nil {
					t.Fatal(err)
				}
				if i%25 == 24 {
					if _, err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A redo tail past the last checkpoint, so recovery must both
			// load the backup and replay the log.
			for i := uint64(0); i < 20; i++ {
				if err := db.Exec(func(tx *mmdb.Txn) error {
					return tx.Write((i*11)%records, val(10000+i))
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}

			dirP := copyTree(t, dir)
			cfgS := cfg
			cfgS.RecoveryParallelism = 1
			dbS, repS, err := mmdb.Recover(cfgS)
			if err != nil {
				t.Fatalf("serial recovery: %v", err)
			}
			defer dbS.Close()
			cfgP := cfg
			cfgP.Dir = dirP
			cfgP.RecoveryParallelism = 4
			dbP, repP, err := mmdb.Recover(cfgP)
			if err != nil {
				t.Fatalf("parallel recovery: %v", err)
			}
			defer dbP.Close()

			if repS.UsedCheckpoint != repP.UsedCheckpoint || repS.UsedCopy != repP.UsedCopy {
				t.Errorf("checkpoint choice differs: serial %+v parallel %+v", repS, repP)
			}
			if repS.SegmentsLoaded != repP.SegmentsLoaded {
				t.Errorf("SegmentsLoaded: serial %d, parallel %d", repS.SegmentsLoaded, repP.SegmentsLoaded)
			}
			if repS.TxnsReplayed != repP.TxnsReplayed {
				t.Errorf("TxnsReplayed: serial %d, parallel %d", repS.TxnsReplayed, repP.TxnsReplayed)
			}
			if repS.UpdatesApplied != repP.UpdatesApplied {
				t.Errorf("UpdatesApplied: serial %d, parallel %d", repS.UpdatesApplied, repP.UpdatesApplied)
			}
			if repS.UpdatesDiscarded != repP.UpdatesDiscarded {
				t.Errorf("UpdatesDiscarded: serial %d, parallel %d", repS.UpdatesDiscarded, repP.UpdatesDiscarded)
			}
			for rid := uint64(0); rid < records; rid++ {
				gotS, err := dbS.ReadRecord(rid)
				if err != nil {
					t.Fatal(err)
				}
				gotP, err := dbP.ReadRecord(rid)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotS, gotP) {
					t.Errorf("record %d: serial %x parallel %x", rid, gotS[:8], gotP[:8])
				}
			}
		})
	}
}
