package wal

import (
	"path/filepath"
	"testing"

	"mmdb/internal/obs"
)

// TestAppendAllocationFree pins Log.Append at zero heap allocations per
// record once the preallocated tail is warm: encodeInto writes the
// header, payload, and trailer directly into the tail buffer, and
// periodic flushes reset the tail's length while keeping its capacity.
func TestAppendAllocationFree(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "alloc.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rec := &Record{Type: TypeUpdate, TxnID: 1, RecordID: 42, Data: make([]byte, 128)}
	flushEvery := 0
	appendOne := func() {
		if _, _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		// Flush well before the default tail fills so the measured
		// steady state never needs tail growth — mirroring the engine's
		// group-commit cadence.
		if flushEvery++; flushEvery == 64 {
			flushEvery = 0
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 128; i++ {
		appendOne()
	}
	allocs := testing.AllocsPerRun(1024, appendOne)
	if allocs != 0 {
		t.Errorf("Append: %v allocs/op, want 0", allocs)
	}
}

// TestAppendAllocationFreeTraced re-pins the zero-allocation contract
// with the full metrics hookup armed, including the commit-attribution
// histogram: the dual observation reuses a single pair of clock reads
// and both Observe calls are lock-free atomics.
func TestAppendAllocationFreeTraced(t *testing.T) {
	reg := obs.NewRegistry()
	m := &Metrics{
		AppendSeconds:       reg.Histogram("mmdb_wal_append_seconds", "", obs.ScaleNanosToSeconds),
		CommitAppendSeconds: reg.Histogram("mmdb_commit_attr_wal_append_seconds", "", obs.ScaleNanosToSeconds),
		FlushSeconds:        reg.Histogram("mmdb_wal_flush_seconds", "", obs.ScaleNanosToSeconds),
		FlushBatchBytes:     reg.Histogram("mmdb_wal_flush_batch_bytes", "", 1),
	}
	l, err := Open(filepath.Join(t.TempDir(), "alloc_traced.log"), Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	upd := &Record{Type: TypeUpdate, TxnID: 1, RecordID: 42, Data: make([]byte, 128)}
	com := &Record{Type: TypeCommit, TxnID: 1}
	flushEvery := 0
	appendOne := func() {
		if _, _, err := l.Append(upd); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Append(com); err != nil {
			t.Fatal(err)
		}
		if flushEvery++; flushEvery == 32 {
			flushEvery = 0
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 128; i++ {
		appendOne()
	}
	allocs := testing.AllocsPerRun(1024, appendOne)
	if allocs != 0 {
		t.Errorf("Append with metrics: %v allocs/op, want 0", allocs)
	}
	if m.CommitAppendSeconds.Count() == 0 {
		t.Error("commit-attribution histogram observed nothing")
	}
	if m.AppendSeconds.Count() < 2*m.CommitAppendSeconds.Count() {
		t.Errorf("AppendSeconds count %d < 2× CommitAppendSeconds count %d; commit records must feed both",
			m.AppendSeconds.Count(), m.CommitAppendSeconds.Count())
	}
}

// TestScanAllocationFree pins the forward scan at zero heap allocations
// per record: frames are verified and decoded where they lie in the scan
// window, into the scanner's one Record. A scan costs the same few
// allocations (the scanner, its window, one active-transaction list the
// markers share) whether it covers a hundred records or ten thousand
// across several windows.
func TestScanAllocationFree(t *testing.T) {
	scanAllocs := func(records int) float64 {
		path := filepath.Join(t.TempDir(), "scan.log")
		l, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		upd := &Record{Type: TypeUpdate, TxnID: 1, RecordID: 42, Data: make([]byte, 128)}
		marker := &Record{Type: TypeBeginCheckpoint, CheckpointID: 1, ActiveTxns: []ActiveTxn{{TxnID: 1, FirstLSN: 0}}}
		for i := 0; i < records; i++ {
			rec := upd
			if i%50 == 49 {
				rec = marker
			}
			if _, _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if records >= 10000 && r.Size().Sub(r.Base()) <= scanWindow {
			t.Fatalf("%d-record log fits one scan window", records)
		}
		n := 0
		count := func(Entry) error { n++; return nil }
		allocs := testing.AllocsPerRun(5, func() {
			n = 0
			if err := r.Scan(r.Base(), count); err != nil {
				t.Fatal(err)
			}
		})
		if n != records {
			t.Fatalf("scanned %d of %d records", n, records)
		}
		return allocs
	}
	small, large := scanAllocs(100), scanAllocs(10000)
	if large != small || large > 4 {
		t.Errorf("Scan: %v allocs over 10000 records, %v over 100; want the same small constant", large, small)
	}
}
