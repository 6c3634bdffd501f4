package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walkReadAt is the reference the windowed scanner is held to: the
// per-record readAt loop that Scan used to be. It returns every intact
// record from start with where and why the walk stopped.
func walkReadAt(r *Reader, start LSN) (got []Entry, end LSN, terminal error) {
	lsn := start
	for {
		rec, next, err := r.readAt(lsn)
		if err != nil {
			return got, lsn, err
		}
		got = append(got, Entry{LSN: lsn, Next: next, Rec: rec})
		lsn = next
	}
}

// assertScanMatchesReadAt scans r from its base with the given window and
// requires exactly the (LSN, Next, Record) sequence, intact end and
// terminal reason of the readAt walk.
func assertScanMatchesReadAt(t testing.TB, r *Reader, window int) {
	t.Helper()
	want, wantEnd, wantTerminal := walkReadAt(r, r.Base())
	var got []Entry
	end, terminal, err := newScanner(r, window).scan(r.Base(), func(e Entry) error {
		e.Rec = e.Rec.Clone() // the scanner's record dies with this callback
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatalf("window %d: scan error: %v", window, err)
	}
	if end != wantEnd || terminal != wantTerminal {
		t.Fatalf("window %d: scan stopped at (%d, %v), readAt walk at (%d, %v)", window, end, terminal, wantEnd, wantTerminal)
	}
	if len(got) != len(want) {
		t.Fatalf("window %d: scan yielded %d records, readAt walk %d", window, len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Next != want[i].Next || !reflect.DeepEqual(got[i].Rec, want[i].Rec) {
			t.Fatalf("window %d: record %d: scan [%d,%d) %+v, readAt walk [%d,%d) %+v", window, i,
				got[i].LSN, got[i].Next, got[i].Rec, want[i].LSN, want[i].Next, want[i].Rec)
		}
	}
}

// writeLogFile writes a base-0 log file holding body and opens a reader
// on it.
func writeLogFile(t testing.TB, body []byte) *Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "redo.log")
	if err := os.WriteFile(path, append(encodeHeader(0), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func encodeAll(t testing.TB, recs ...*Record) []byte {
	t.Helper()
	var body []byte
	for _, rec := range recs {
		var err error
		if body, err = appendEncoded(body, rec); err != nil {
			t.Fatal(err)
		}
	}
	return body
}

// Frame sizes the boundary cases are built from: a commit is 21 bytes, an
// update 33 plus its data.
var (
	commitRec = &Record{Type: TypeCommit, TxnID: 3}
	updateRec = func(n int) *Record {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i + 1)
		}
		return &Record{Type: TypeUpdate, TxnID: 3, RecordID: 9, Data: data}
	}
	markerRec = &Record{Type: TypeBeginCheckpoint, CheckpointID: 2, Timestamp: 40, TargetCopy: 1, Algorithm: 3,
		ActiveTxns: []ActiveTxn{{TxnID: 7, FirstLSN: 0}, {TxnID: 8, FirstLSN: 33}}}
)

// TestScanWindowBoundaries drives the scanner with windows far smaller than
// its production size, so that every way a frame can meet the end of a
// window occurs within a handful of records. A refill repositions the
// window at the frame it could not finish, so the geometry below is in
// bytes from the start of the log.
func TestScanWindowBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		window int
		recs   []*Record
	}{
		// 37-byte frames in a 64-byte window: the second frame [37,74)
		// begins in the first window and ends past it.
		{"frame straddles a refill", 64, []*Record{updateRec(4), updateRec(4), updateRec(4), commitRec}},
		// A 233-byte frame between small ones: the window grows to hold it.
		{"frame larger than the window", 64, []*Record{commitRec, updateRec(200), commitRec, updateRec(4)}},
		// Three 21-byte frames leave one byte of a 64-byte window for the
		// fourth frame's 8-byte header.
		{"header split across windows", 64, []*Record{commitRec, commitRec, commitRec, updateRec(4), commitRec}},
		// Three 21-byte frames fill a 63-byte window exactly, and a
		// 21-byte window holds exactly one.
		{"log ends on a window boundary", 63, []*Record{commitRec, commitRec, commitRec}},
		{"every frame fills its window", 21, []*Record{commitRec, commitRec, commitRec}},
		// A marker's active-transaction list is decoded into the scanner's
		// own slice, which later records must not see.
		{"marker between updates", 64, []*Record{updateRec(4), markerRec, updateRec(70), commitRec}},
		{"empty log", 64, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := writeLogFile(t, encodeAll(t, c.recs...))
			assertScanMatchesReadAt(t, r, c.window)
			if got, _, _ := walkReadAt(r, r.Base()); len(got) != len(c.recs) {
				t.Fatalf("reference walk read %d of %d records", len(got), len(c.recs))
			}
		})
	}

	// Every alignment at once: one mixed log under every window size from
	// a single byte to more than the whole log.
	body := encodeAll(t, updateRec(4), commitRec, markerRec, updateRec(0), updateRec(130), commitRec, commitRec, updateRec(61))
	r := writeLogFile(t, body)
	for window := 1; window <= len(body)+2; window++ {
		assertScanMatchesReadAt(t, r, window)
	}
}

// TestScanWindowTornTail re-runs the torn-tail classification of
// TestScanTailTruncated and TestScanTailCorrupt at every offset of the last
// frame — the file cut after each of its bytes, and each of its bytes
// scribbled on in turn — under windows that split the last frame, hold it
// exactly, and hold the whole log.
func TestScanWindowTornTail(t *testing.T) {
	body := encodeAll(t, updateRec(4), commitRec, updateRec(4), commitRec, updateRec(40))
	last := len(body) - (33 + 40) // the start of the final update's frame
	windows := []int{7, 64, len(body) - last, scanWindow}

	for cut := last + 1; cut < len(body); cut++ {
		r := writeLogFile(t, body[:cut])
		end, terminal := LSN(last), ErrTruncated
		if _, gotEnd, gotTerminal := walkReadAt(r, r.Base()); gotEnd != end || gotTerminal != terminal {
			t.Fatalf("cut at %d: readAt walk stopped at (%d, %v), want (%d, %v)", cut, gotEnd, gotTerminal, end, terminal)
		}
		for _, window := range windows {
			assertScanMatchesReadAt(t, r, window)
		}
	}

	for at := last; at < len(body); at++ {
		scribbled := append([]byte(nil), body...)
		scribbled[at] ^= 0xFF
		r := writeLogFile(t, scribbled)
		// A scribbled length reads as a frame running past the end of the
		// file; anything else fails the checksum or the trailer check.
		if _, gotEnd, gotTerminal := walkReadAt(r, r.Base()); gotEnd != LSN(last) ||
			(gotTerminal != ErrCorrupt && gotTerminal != ErrTruncated) {
			t.Fatalf("scribble at %d: readAt walk stopped at (%d, %v), want the last frame torn", at, gotEnd, gotTerminal)
		}
		for _, window := range windows {
			assertScanMatchesReadAt(t, r, window)
		}
	}
}

// TestRecordClone: a clone shares no bytes with the record it came from.
func TestRecordClone(t *testing.T) {
	orig := &Record{Type: TypeBeginCheckpoint, CheckpointID: 1, Data: []byte("abc"), ActiveTxns: []ActiveTxn{{TxnID: 4, FirstLSN: 8}}}
	c := orig.Clone()
	if !reflect.DeepEqual(c, orig) {
		t.Fatalf("clone %+v differs from %+v", c, orig)
	}
	orig.Data[0], orig.ActiveTxns[0].TxnID = 'z', 99
	if c.Data[0] != 'a' || c.ActiveTxns[0].TxnID != 4 {
		t.Fatalf("clone %+v aliases the original", c)
	}
}
