package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedRecords is a small record mix covering every type, used to seed
// both fuzz corpora with realistic log bytes.
func fuzzSeedRecords() [][]byte {
	recs := []*Record{
		{Type: TypeUpdate, TxnID: 7, RecordID: 3, Data: []byte("after-image")},
		{Type: TypeCommit, TxnID: 7},
		{Type: TypeAbort, TxnID: 9},
		{Type: TypeLogicalUpdate, TxnID: 8, RecordID: 5, OpCode: 1, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: TypeBeginCheckpoint, CheckpointID: 2, Timestamp: 40, TargetCopy: 1, Algorithm: 3,
			ActiveTxns: []ActiveTxn{{TxnID: 7, FirstLSN: 0}, {TxnID: 8, FirstLSN: 33}}},
		{Type: TypeEndCheckpoint, CheckpointID: 2, TargetCopy: 1},
	}
	var out [][]byte
	var chain []byte
	for _, r := range recs {
		one, err := appendEncoded(nil, r)
		if err != nil {
			panic(err)
		}
		out = append(out, one)
		chain, err = appendEncoded(chain, r)
		if err != nil {
			panic(err)
		}
	}
	out = append(out, chain)
	// Torn-write shapes: the chain cut mid-record and with a scribbled
	// tail byte, as the fault injector produces them.
	for _, cut := range []int{1, headerSize - 1, headerSize + 3, len(chain) - trailerSize, len(chain) - 1} {
		if cut > 0 && cut < len(chain) {
			out = append(out, chain[:cut])
		}
	}
	scribbled := append([]byte(nil), chain...)
	scribbled[len(scribbled)-7] ^= 0x80
	out = append(out, scribbled)
	return out
}

// fuzzWindows are the scan windows the fuzz targets compare against the
// readAt walk: two small enough to split the seeds' frames and headers, and
// one that holds a whole fuzz input, as ScanTail's does.
var fuzzWindows = []int{5, 48, 4096}

// FuzzReadRecord throws arbitrary bytes at the record decoder: it must
// never panic or allocate unboundedly, and on success the reported frame
// length must lie within the input. The same bytes, as the body of a log
// file, must scan identically through the windowed scanner and the readAt
// walk.
func FuzzReadRecord(f *testing.F) {
	for _, seed := range fuzzSeedRecords() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := writeLogFile(t, data)
		for _, window := range fuzzWindows {
			assertScanMatchesReadAt(t, r, window)
		}

		rec, n, err := decodeFrom(data)
		if err != nil {
			if rec != nil {
				t.Fatal("decodeFrom returned a record alongside an error")
			}
			return
		}
		if rec == nil {
			t.Fatal("decodeFrom returned nil record with nil error")
		}
		if n < headerSize+trailerSize+1 || n > len(data) {
			t.Fatalf("decoded frame length %d outside (framing, len=%d]", n, len(data))
		}
		// A decoded record must re-encode; its payload survived a CRC
		// check, so the type and lengths are internally consistent.
		if _, err := appendEncoded(nil, rec); err != nil {
			t.Fatalf("re-encode of decoded record failed: %v", err)
		}
	})
}

// FuzzRecover treats the fuzz input as the full contents of a log file
// and drives the whole reader surface over it: opening, forward scans,
// backward scans, and checkpoint location must never panic and must fail
// only with typed errors, and the windowed forward scan must agree with the
// readAt walk record for record.
func FuzzRecover(f *testing.F) {
	// Seeds: intact logs, torn tails, corrupted headers — header-prefixed
	// versions of the record corpus.
	hdr := encodeHeader(0)
	for _, body := range fuzzSeedRecords() {
		f.Add(append(append([]byte(nil), hdr...), body...))
	}
	f.Add([]byte{})
	f.Add(hdr[:5])
	badHdr := append([]byte(nil), hdr...)
	badHdr[2] ^= 1
	f.Add(badHdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "redo.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := OpenReader(path)
		if err != nil {
			if !errors.Is(err, ErrBadHeader) {
				t.Fatalf("OpenReader failed with untyped error: %v", err)
			}
			return
		}
		defer r.Close()

		end, terminal, err := r.ScanTail(r.Base(), func(e Entry) error {
			if e.Rec == nil || e.Next <= e.LSN {
				t.Fatalf("bad entry: rec=%v span [%d,%d)", e.Rec, e.LSN, e.Next)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ScanTail error: %v", err)
		}
		switch {
		case errors.Is(terminal, io.EOF), errors.Is(terminal, ErrTruncated), errors.Is(terminal, ErrCorrupt):
		default:
			t.Fatalf("untyped terminal reason: %v", terminal)
		}
		if end < r.Base() || end > r.Size() {
			t.Fatalf("intact end %d outside [%d,%d]", end, r.Base(), r.Size())
		}
		for _, window := range fuzzWindows {
			assertScanMatchesReadAt(t, r, window)
		}

		// The intact prefix must support a full backward scan.
		if err := r.ScanBackward(end, func(Entry) error { return nil }); err != nil {
			t.Fatalf("ScanBackward over intact prefix [%d,%d): %v", r.Base(), end, err)
		}
		// Checkpoint location over the intact prefix: any error must be a
		// clean "not found" or typed corruption, never a panic.
		if _, err := r.FindLastCompleted(end); err != nil &&
			!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) &&
			err.Error() != "wal: no completed checkpoint in log" {
			t.Fatalf("FindLastCompleted: %v", err)
		}
	})
}
