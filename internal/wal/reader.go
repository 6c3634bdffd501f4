package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Reader scans a closed log file. It supports the two access patterns of
// the paper's recovery procedure (Section 3.3): a backward scan to locate
// the most recent begin-checkpoint marker, and a forward scan that replays
// redo records.
type Reader struct {
	f    *os.File
	base LSN // LSN at file offset fileHeaderSize
	end  LSN // LSN just past the last byte in the file
}

// ErrCompacted reports an attempt to read records that head compaction
// has dropped from the log file.
var ErrCompacted = errors.New("wal: requested LSN predates the compacted log head")

// ErrTruncated reports a record frame cut off by the end of the file: the
// signature of a torn tail, where a crash lost the unsynced suffix of an
// append. It is distinct from ErrCorrupt (a complete frame whose checksum
// or framing is wrong); recovery treats both as the end of the usable log,
// but diagnostics and tests need to tell them apart.
var ErrTruncated = errors.New("wal: record truncated at end of log")

// OpenReader opens the log file at path for scanning.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open reader: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat reader: %w", err)
	}
	r := &Reader{f: f}
	if fi.Size() == 0 {
		// A log that was never opened for writing: empty, base 0.
		return r, nil
	}
	hdr := make([]byte, fileHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// The file is shorter than a header: a crash tore the very
			// first write to a fresh log.
			return nil, fmt.Errorf("%w: file shorter than header", ErrBadHeader)
		}
		return nil, fmt.Errorf("wal: read header: %w", err)
	}
	base, err := decodeHeader(hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.base = base
	r.end = base
	if fi.Size() > fileHeaderSize {
		r.end = base + LSN(fi.Size()-fileHeaderSize)
	}
	return r, nil
}

// Close releases the reader.
func (r *Reader) Close() error { return r.f.Close() }

// Size returns the end LSN of the durable log.
func (r *Reader) Size() LSN { return r.end }

// Base returns the oldest LSN present in the file.
func (r *Reader) Base() LSN { return r.base }

// FileOffset translates an LSN into a byte offset in the log file (used
// by recovery to truncate a torn tail).
func (r *Reader) FileOffset(lsn LSN) int64 {
	return fileHeaderSize + int64(lsn-r.base)
}

// SectionReader returns a reader over the raw log bytes [from, to),
// used for archiving an intact log suffix.
func (r *Reader) SectionReader(from, to LSN) (*io.SectionReader, error) {
	if from < r.base {
		return nil, fmt.Errorf("%w: from %d < base %d", ErrCompacted, from, r.base)
	}
	if to < from || to > r.end {
		return nil, fmt.Errorf("wal: section [%d,%d) outside log [%d,%d)", from, to, r.base, r.end)
	}
	return io.NewSectionReader(r.f, r.FileOffset(from), int64(to-from)), nil
}

// readAt reads and decodes the single record starting at lsn into a
// Record that owns its bytes, and returns it with the LSN of the following
// record. It is the random-access primitive under backward scans and the
// reference the tests hold the windowed forward scanner to; forward scans
// do not use it (two reads and three allocations per record).
func (r *Reader) readAt(lsn LSN) (*Record, LSN, error) {
	if lsn < r.base {
		return nil, 0, fmt.Errorf("%w: lsn %d < base %d", ErrCompacted, lsn, r.base)
	}
	if lsn >= r.end {
		return nil, 0, io.EOF
	}
	var hdr [headerSize]byte
	if _, err := r.f.ReadAt(hdr[:], r.FileOffset(lsn)); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Fewer than headerSize bytes remain: the frame was cut off
			// mid-header by a torn tail.
			return nil, 0, ErrTruncated
		}
		return nil, 0, err
	}
	plen := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if plen <= 0 || plen > MaxPayload {
		return nil, 0, ErrCorrupt
	}
	total := headerSize + plen + trailerSize
	if lsn+LSN(total) > r.end {
		// The header is plausible but the frame runs past the end of the
		// file: the tail of the record was lost, not scribbled on.
		return nil, 0, ErrTruncated
	}
	buf := make([]byte, total)
	if _, err := r.f.ReadAt(buf, r.FileOffset(lsn)); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, ErrTruncated
		}
		return nil, 0, err
	}
	rec, n, err := decodeFrom(buf)
	if err != nil {
		return nil, 0, err
	}
	return rec, lsn + LSN(n), nil
}

// Entry pairs a decoded record with its position in the log.
//
// A forward scan (Scan, ScanTail, ValidEnd) decodes in place: Rec is owned
// by the scan, and its Data and ActiveTxns alias the scan's read window.
// Rec is therefore valid only until the callback returns; a callback that
// keeps the record, or any slice of it, must take Rec.Clone() (or copy the
// bytes). Entries of a backward scan own their records.
type Entry struct {
	LSN  LSN
	Next LSN
	Rec  *Record
}

// Scan invokes fn for each valid record from start in log order. Scanning
// stops at the first torn or corrupt record (the tail lost in a crash) or
// at end of file; neither is an error. fn may stop the scan early by
// returning a non-nil error, which Scan returns unchanged. e.Rec is valid
// only during the call to fn (see Entry).
func (r *Reader) Scan(start LSN, fn func(Entry) error) error {
	_, _, err := r.ScanTail(start, fn) //nolint:errcheckwal // the discarded terminal reason is a classification, not an error; err is returned
	return err
}

// ScanTail is Scan, but additionally reports where the intact prefix ends
// and why: io.EOF when the file ends cleanly on a record boundary,
// ErrTruncated when the last frame was cut off (a torn tail), ErrCorrupt
// when a complete frame fails its checksum or framing. The terminal reason
// is a classification, not a failure — the returned error is nil unless fn
// aborted the scan or a read failed outright.
func (r *Reader) ScanTail(start LSN, fn func(Entry) error) (end LSN, terminal error, err error) {
	window := scanWindow
	if left := r.end.Sub(start); left < scanWindow {
		window = int(max(left, 0)) // a short log needs no more than itself
	}
	return newScanner(r, window).scan(start, fn)
}

// scanWindow is how much log a forward scan reads per ReadAt: large enough
// that the syscall and the page-cache copy are amortised over thousands of
// records, small enough to stay cache-resident while they are decoded.
const scanWindow = 1 << 20

// scanner is the one forward-scan implementation: it reads the log a
// window at a time and length-checks, checksums and decodes each frame
// where it lies in the window, into the single Record it owns.
type scanner struct {
	r   *Reader
	end LSN    // r.end, lowered if the file turns out shorter
	buf []byte // buf[:n] holds the log bytes [at, at+n)
	at  LSN
	n   int
	rec Record
}

// newScanner returns a scanner over r with the given window size. The
// window grows only for a frame that does not fit in it.
func newScanner(r *Reader, window int) *scanner {
	return &scanner{r: r, end: r.end, buf: make([]byte, window)}
}

// window returns the buffered log bytes from lsn on, refilling the buffer
// if fewer than need are there. It returns fewer than need only when the
// file ends first.
//
// perf:hotpath(every record of every forward scan asks for its bytes here)
func (s *scanner) window(lsn LSN, need int) ([]byte, error) {
	var held []byte // what the window already holds from lsn on
	if lsn >= s.at && lsn-s.at <= LSN(s.n) {
		held = s.buf[lsn-s.at : s.n]
	}
	if len(held) >= need {
		return held, nil
	}
	return s.refill(lsn, need, held)
}

// refill repositions the window to start at lsn, keeping the bytes it
// already held from there on (the start of a frame cut by the old window's
// end) and reading the rest, so that each log byte is read once per scan.
func (s *scanner) refill(lsn LSN, need int, held []byte) ([]byte, error) {
	if need > len(s.buf) {
		// alloc:allowed(a frame larger than the window: grow once to fit it)
		grown := make([]byte, need)
		copy(grown, held)
		s.buf = grown
	} else {
		copy(s.buf, held)
	}
	have := len(held)
	want := len(s.buf)
	if left := s.end - lsn; left < LSN(want) {
		want = int(left)
	}
	n, err := s.r.f.ReadAt(s.buf[have:want], s.r.FileOffset(lsn)+int64(have))
	s.at, s.n = lsn, have+n
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, err
		}
		// The file is shorter than it was when the reader opened it:
		// whatever was cut off is a torn tail.
		s.end = lsn + LSN(s.n)
	}
	return s.buf[:s.n], nil
}

// scan is ScanTail over the scanner's window.
//
// perf:hotpath(the per-record loop of recovery's two log passes)
func (s *scanner) scan(start LSN, fn func(Entry) error) (end LSN, terminal error, err error) {
	if start < s.r.base {
		err := fmt.Errorf("%w: lsn %d < base %d", ErrCompacted, start, s.r.base)
		return start, err, err
	}
	lsn := start
	for {
		if lsn >= s.end {
			return lsn, io.EOF, nil
		}
		b, err := s.window(lsn, headerSize)
		if err != nil {
			return lsn, err, err
		}
		if len(b) < headerSize {
			// Fewer than headerSize bytes remain: the frame was cut off
			// mid-header by a torn tail.
			return lsn, ErrTruncated, nil
		}
		plen := int(binary.LittleEndian.Uint32(b))
		if plen <= 0 || plen > MaxPayload {
			return lsn, ErrCorrupt, nil
		}
		total := headerSize + plen + trailerSize
		if lsn+LSN(total) > s.end {
			// The header is plausible but the frame runs past the end of
			// the file: the tail of the record was lost, not scribbled on.
			return lsn, ErrTruncated, nil
		}
		if len(b) < total {
			if b, err = s.window(lsn, total); err != nil {
				return lsn, err, err
			}
			if len(b) < total {
				return lsn, ErrTruncated, nil
			}
		}
		if _, err := decodeFrame(b[:total], &s.rec); err != nil {
			return lsn, err, nil
		}
		next := lsn + LSN(total)
		if fn != nil {
			if ferr := fn(Entry{LSN: lsn, Next: next, Rec: &s.rec}); ferr != nil {
				return lsn, nil, ferr
			}
		}
		lsn = next
	}
}

// readBackFrom decodes the record that ends exactly at end, using the
// trailing length copy in the frame.
func (r *Reader) readBackFrom(end LSN) (Entry, error) {
	if end < r.base+headerSize+trailerSize {
		return Entry{}, ErrCorrupt
	}
	var tb [trailerSize]byte
	if _, err := r.f.ReadAt(tb[:], r.FileOffset(end)-trailerSize); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Backward scans must run over the intact prefix; a read past
			// the file end means the caller's end LSN was bad.
			return Entry{}, fmt.Errorf("%w: backward read past end of file", ErrCorrupt)
		}
		return Entry{}, err
	}
	plen := int(uint32(tb[0]) | uint32(tb[1])<<8 | uint32(tb[2])<<16 | uint32(tb[3])<<24)
	if plen <= 0 || plen > MaxPayload {
		return Entry{}, ErrCorrupt
	}
	total := LSN(headerSize + plen + trailerSize)
	if end < r.base+total {
		return Entry{}, ErrCorrupt
	}
	start := end - total
	rec, next, err := r.readAt(start)
	if err != nil {
		return Entry{}, err
	}
	if next != end {
		return Entry{}, ErrCorrupt
	}
	return Entry{LSN: start, Next: end, Rec: rec}, nil
}

// ScanBackward invokes fn for each valid record strictly before end, in
// reverse log order, starting with the record that ends at end. The log
// must be intact over the scanned range (backward scans run over the
// durable prefix located by ValidEnd). fn stops the scan by returning a
// non-nil error, which is returned unchanged.
func (r *Reader) ScanBackward(end LSN, fn func(Entry) error) error {
	at := end
	for at > r.base {
		e, err := r.readBackFrom(at)
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
		at = e.LSN
	}
	return nil
}

// ValidEnd scans forward from start and returns the LSN just past the last
// valid record — the end of the intact log prefix. Recovery uses it to
// bound the backward scan and to position the re-opened log for appends.
func (r *Reader) ValidEnd(start LSN) (LSN, error) {
	end := start
	err := r.Scan(start, func(e Entry) error {
		end = e.Next
		return nil
	})
	return end, err
}

// CheckpointMarker describes a begin-checkpoint record found in the log.
type CheckpointMarker struct {
	LSN          LSN
	CheckpointID uint64
	Timestamp    uint64
	TargetCopy   uint8
	Algorithm    uint8
	ActiveTxns   []ActiveTxn
	// ScanStart is the LSN at which a forward redo scan must begin: the
	// marker itself, or the first LSN of the oldest transaction that was
	// active when the checkpoint began, whichever is smaller.
	ScanStart LSN
}

// scanStart computes the redo scan start for a marker entry.
func scanStart(e Entry) LSN {
	s := e.LSN
	for _, at := range e.Rec.ActiveTxns {
		if at.FirstLSN != NilLSN && at.FirstLSN < s {
			s = at.FirstLSN
		}
	}
	return s
}

// FindCheckpoint scans backward from end for the begin-checkpoint marker
// of the checkpoint with the given ID. This implements the paper's
// backward scan: "the log must be scanned backwards until the
// begin-checkpoint marker of the most recently completed checkpoint is
// found". The ID of that checkpoint comes from the backup metadata (or
// from end-checkpoint markers; see FindLastCompleted).
func (r *Reader) FindCheckpoint(end LSN, checkpointID uint64) (*CheckpointMarker, error) {
	var found *CheckpointMarker
	stop := errors.New("stop")
	err := r.ScanBackward(end, func(e Entry) error {
		if e.Rec.Type == TypeBeginCheckpoint && e.Rec.CheckpointID == checkpointID {
			found = &CheckpointMarker{
				LSN:          e.LSN,
				CheckpointID: e.Rec.CheckpointID,
				Timestamp:    e.Rec.Timestamp,
				TargetCopy:   e.Rec.TargetCopy,
				Algorithm:    e.Rec.Algorithm,
				ActiveTxns:   e.Rec.ActiveTxns,
				ScanStart:    scanStart(e),
			}
			return stop
		}
		return nil
	})
	if err != nil && !errors.Is(err, stop) {
		return nil, err
	}
	if found == nil {
		return nil, fmt.Errorf("wal: begin-checkpoint marker for checkpoint %d not found", checkpointID)
	}
	return found, nil
}

// FindLastCompleted scans backward from end for the most recent checkpoint
// that has both its end-checkpoint and begin-checkpoint markers in the
// log. It implements the paper's alternative to explicit backup metadata:
// "placing explicit end-checkpoint markers in the log during normal
// operation".
func (r *Reader) FindLastCompleted(end LSN) (*CheckpointMarker, error) {
	var found *CheckpointMarker
	completed := make(map[uint64]bool)
	stop := errors.New("stop")
	err := r.ScanBackward(end, func(e Entry) error {
		switch e.Rec.Type {
		case TypeEndCheckpoint:
			completed[e.Rec.CheckpointID] = true
		case TypeBeginCheckpoint:
			if completed[e.Rec.CheckpointID] {
				found = &CheckpointMarker{
					LSN:          e.LSN,
					CheckpointID: e.Rec.CheckpointID,
					Timestamp:    e.Rec.Timestamp,
					TargetCopy:   e.Rec.TargetCopy,
					Algorithm:    e.Rec.Algorithm,
					ActiveTxns:   e.Rec.ActiveTxns,
					ScanStart:    scanStart(e),
				}
				return stop
			}
		}
		return nil
	})
	if err != nil && !errors.Is(err, stop) {
		return nil, err
	}
	if found == nil {
		return nil, errors.New("wal: no completed checkpoint in log")
	}
	return found, nil
}
