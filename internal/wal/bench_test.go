package wal

import (
	"path/filepath"
	"testing"
)

func benchLog(b *testing.B, opts Options) *Log {
	b.Helper()
	l, err := Open(filepath.Join(b.TempDir(), "bench.log"), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	return l
}

// BenchmarkAppend measures pure in-memory tail appends (the transaction
// path's log cost under asynchronous commit).
func BenchmarkAppend(b *testing.B) {
	l := benchLog(b, Options{})
	rec := &Record{Type: TypeUpdate, TxnID: 1, RecordID: 42, Data: make([]byte, 128)}
	b.SetBytes(int64(headerSize + trailerSize + encodedPayloadLen(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendWaitDurable measures the synchronous-commit path: append
// plus an inline flush to the file.
func BenchmarkAppendWaitDurable(b *testing.B) {
	l := benchLog(b, Options{})
	rec := &Record{Type: TypeCommit, TxnID: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, end, err := l.Append(rec)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.WaitDurable(end); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan measures forward recovery scanning over a log of several
// scan windows, so window refills and frames that straddle them are part of
// what the MB/s covers.
func BenchmarkScan(b *testing.B) {
	path := filepath.Join(b.TempDir(), "scan.log")
	l, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rec := &Record{Type: TypeUpdate, TxnID: 1, RecordID: 7, Data: make([]byte, 128)}
	const records = 30000
	for i := 0; i < records; i++ {
		if _, _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	logBytes := r.Size().Sub(r.Base())
	if logBytes < 4*scanWindow {
		b.Fatalf("log of %d bytes spans fewer than 4 scan windows", logBytes)
	}
	b.SetBytes(logBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := r.Scan(0, func(Entry) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("scanned %d", n)
		}
	}
	b.ReportMetric(float64(records), "records/scan")
}

// BenchmarkCompact measures a head compaction of a half-dead log.
func BenchmarkCompact(b *testing.B) {
	rec := &Record{Type: TypeUpdate, TxnID: 1, RecordID: 7, Data: make([]byte, 128)}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := benchLog(b, Options{})
		var mid LSN
		for j := 0; j < 2000; j++ {
			start, _, err := l.Append(rec)
			if err != nil {
				b.Fatal(err)
			}
			if j == 1000 {
				mid = start
			}
		}
		b.StartTimer()
		if _, err := l.Compact(mid); err != nil {
			b.Fatal(err)
		}
	}
}
