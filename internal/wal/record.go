// Package wal implements the redo-only transaction log of the paper's
// MMDBMS (Sections 2.6 and 3.1 of Salem & Garcia-Molina, "Checkpointing
// Memory-Resident Databases").
//
// The log is an append-only sequence of records addressed by log sequence
// numbers (LSNs). Transactions write redo (after-image) records as they
// update and a commit record when they finish; the checkpointer writes
// begin-checkpoint markers carrying the list of active transactions, and
// end-checkpoint markers. The in-memory log tail is either volatile
// (records become durable when the tail is flushed to the log disk) or
// stable (the paper's "stable log tail": enough stable RAM to hold the
// unflushed tail, which makes every append immediately durable and enables
// the FASTFUZZY checkpoint).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// LSN is a log sequence number: the byte offset of a record in the log
// file. LSNs increase monotonically with log order.
type LSN uint64

// NilLSN marks "no LSN" (e.g., a transaction that has logged nothing yet).
const NilLSN LSN = ^LSN(0)

// RecordType identifies the kind of a log record.
type RecordType uint8

// Log record types.
const (
	// TypeUpdate is a redo record: the after-image of one database record
	// written by a transaction. Emitted at update time, before commit.
	TypeUpdate RecordType = iota + 1
	// TypeCommit terminates a committed transaction. Redo-only logging:
	// only transactions with a commit record are replayed at recovery.
	TypeCommit
	// TypeAbort terminates an aborted transaction (including transactions
	// restarted for violating the two-color constraint). Its redo records
	// are dead weight in the log — the "added log bulk" of Section 3.3.
	TypeAbort
	// TypeBeginCheckpoint marks the start of a checkpoint and carries the
	// checkpoint's ID, timestamp, target ping-pong copy, and the list of
	// transactions active at that instant together with their first LSNs.
	TypeBeginCheckpoint
	// TypeEndCheckpoint marks the successful completion of a checkpoint.
	TypeEndCheckpoint
	// TypeLogicalUpdate is a logical (operation) redo record: an operation
	// code plus operand to re-apply to a record, instead of its after
	// image. The paper notes that consistent backups "permit the use of
	// logical logging" (Section 3.2) — operation replay is not idempotent,
	// so it is only sound against a backup that is an exact state at a
	// known log position, which copy-on-update checkpoints provide.
	TypeLogicalUpdate
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case TypeUpdate:
		return "update"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeBeginCheckpoint:
		return "begin-checkpoint"
	case TypeEndCheckpoint:
		return "end-checkpoint"
	case TypeLogicalUpdate:
		return "logical-update"
	default:
		return fmt.Sprintf("wal.RecordType(%d)", uint8(t))
	}
}

// ActiveTxn describes one transaction that was in flight when a checkpoint
// began: its ID and the LSN of its first logged update. The recovery
// manager must start its forward scan no later than the smallest such LSN
// (Section 3.3: for fuzzy checkpoints the backward scan continues to the
// beginning of the earliest active transaction).
type ActiveTxn struct {
	TxnID    uint64
	FirstLSN LSN
}

// Record is a decoded log record. Fields are populated according to Type.
type Record struct {
	Type RecordType

	// TxnID identifies the transaction for update/commit/abort records.
	TxnID uint64

	// RecordID and Data are the redo payload of an update record. For
	// logical updates Data is the operand and OpCode the operation.
	RecordID uint64
	Data     []byte
	OpCode   uint16

	// Checkpoint marker fields.
	CheckpointID uint64
	Timestamp    uint64
	TargetCopy   uint8
	Algorithm    uint8
	ActiveTxns   []ActiveTxn
}

// Record wire format:
//
//	[payloadLen u32][crc32(payload) u32][payload][payloadLen u32]
//
// The trailing length copy permits backward scans (used to locate the most
// recent begin-checkpoint marker, as the paper's recovery procedure
// describes). The record's LSN is the offset of its first byte; the header
// and trailer add headerSize+trailerSize bytes of framing.
const (
	headerSize  = 8
	trailerSize = 4
	// MaxPayload bounds a single record; segments are the largest payloads
	// and are far below this.
	MaxPayload = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that failed checksum or framing validation.
// During recovery this marks the torn tail of the log: scanning stops.
var ErrCorrupt = errors.New("wal: corrupt or torn log record")

// encodedPayloadLen returns the payload size of r.
func encodedPayloadLen(r *Record) int {
	switch r.Type {
	case TypeUpdate:
		return 1 + 8 + 8 + 4 + len(r.Data)
	case TypeLogicalUpdate:
		return 1 + 8 + 8 + 2 + 4 + len(r.Data)
	case TypeCommit, TypeAbort:
		return 1 + 8
	case TypeBeginCheckpoint:
		return 1 + 8 + 8 + 1 + 1 + 4 + len(r.ActiveTxns)*16
	case TypeEndCheckpoint:
		return 1 + 8 + 1
	default:
		return -1
	}
}

// EncodedLen returns the total on-log size of r including framing, or an
// error for an unknown type.
func EncodedLen(r *Record) (int, error) {
	n := encodedPayloadLen(r)
	if n < 0 {
		return 0, fmt.Errorf("wal: cannot encode record of type %v", r.Type)
	}
	return headerSize + n + trailerSize, nil
}

// encodeInto writes the framed encoding of r into dst, which must be at
// least EncodedLen(r) bytes long, and returns the number of bytes
// written. It is a vectored encode: every field lands at a computed
// offset, nothing is appended, so a caller that sizes the buffer up
// front (the Log keeps a preallocated tail) encodes with zero heap
// allocation. r is only read and never retained, which the lint/escape
// parameter-leak facts prove, keeping callers' Record literals on their
// stacks.
func encodeInto(dst []byte, r *Record) (int, error) {
	plen := encodedPayloadLen(r)
	if plen < 0 {
		return 0, fmt.Errorf("wal: cannot encode record of type %v", r.Type)
	}
	if plen > MaxPayload {
		return 0, fmt.Errorf("wal: record payload %d exceeds limit %d", plen, MaxPayload)
	}
	total := headerSize + plen + trailerSize
	if len(dst) < total {
		return 0, fmt.Errorf("wal: encode buffer %d short of record size %d", len(dst), total)
	}
	binary.LittleEndian.PutUint32(dst, uint32(plen))
	p := dst[headerSize : headerSize+plen]
	p[0] = byte(r.Type)
	switch r.Type {
	case TypeUpdate:
		binary.LittleEndian.PutUint64(p[1:], r.TxnID)
		binary.LittleEndian.PutUint64(p[9:], r.RecordID)
		binary.LittleEndian.PutUint32(p[17:], uint32(len(r.Data)))
		copy(p[21:], r.Data)
	case TypeLogicalUpdate:
		binary.LittleEndian.PutUint64(p[1:], r.TxnID)
		binary.LittleEndian.PutUint64(p[9:], r.RecordID)
		binary.LittleEndian.PutUint16(p[17:], r.OpCode)
		binary.LittleEndian.PutUint32(p[19:], uint32(len(r.Data)))
		copy(p[23:], r.Data)
	case TypeCommit, TypeAbort:
		binary.LittleEndian.PutUint64(p[1:], r.TxnID)
	case TypeBeginCheckpoint:
		binary.LittleEndian.PutUint64(p[1:], r.CheckpointID)
		binary.LittleEndian.PutUint64(p[9:], r.Timestamp)
		p[17] = r.TargetCopy
		p[18] = r.Algorithm
		binary.LittleEndian.PutUint32(p[19:], uint32(len(r.ActiveTxns)))
		for i := range r.ActiveTxns {
			binary.LittleEndian.PutUint64(p[23+i*16:], r.ActiveTxns[i].TxnID)
			binary.LittleEndian.PutUint64(p[31+i*16:], uint64(r.ActiveTxns[i].FirstLSN))
		}
	case TypeEndCheckpoint:
		binary.LittleEndian.PutUint64(p[1:], r.CheckpointID)
		p[9] = r.TargetCopy
	}
	binary.LittleEndian.PutUint32(dst[4:], crc32.Checksum(p, crcTable))
	binary.LittleEndian.PutUint32(dst[headerSize+plen:], uint32(plen))
	return total, nil
}

// appendEncoded appends the framed encoding of r to dst and returns the
// extended slice. Callers off the hot path (tests, tools) use it; the
// Log's append path encodes with encodeInto into its preallocated tail.
func appendEncoded(dst []byte, r *Record) ([]byte, error) {
	n, err := EncodedLen(r)
	if err != nil {
		return dst, err
	}
	off := len(dst)
	if cap(dst)-off < n {
		grown := make([]byte, off, off+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+n]
	if _, err := encodeInto(dst[off:], r); err != nil {
		return dst[:off], err
	}
	return dst, nil
}

// Clone returns a deep copy of r that owns its Data and ActiveTxns. A
// forward scan hands out records that alias its read window (see Entry);
// a caller that keeps one past its callback clones it.
func (r *Record) Clone() *Record {
	c := *r
	c.Data = append([]byte(nil), r.Data...)
	c.ActiveTxns = append([]ActiveTxn(nil), r.ActiveTxns...)
	return &c
}

// decodePayload decodes a verified payload into r in place: r is
// overwritten, r.Data aliases payload, and r.ActiveTxns reuses r's
// previous backing array, so a caller that recycles one Record decodes
// without allocating (a marker with more active transactions than any
// before it grows the array once).
//
// perf:hotpath(recovery decodes every surviving log record through here)
func decodePayload(payload []byte, r *Record) error {
	if len(payload) < 1 {
		return ErrCorrupt
	}
	*r = Record{Type: RecordType(payload[0]), ActiveTxns: r.ActiveTxns[:0]}
	b := payload[1:]
	switch r.Type {
	case TypeUpdate:
		if len(b) < 20 {
			return ErrCorrupt
		}
		r.TxnID = binary.LittleEndian.Uint64(b)
		r.RecordID = binary.LittleEndian.Uint64(b[8:])
		dlen := int(binary.LittleEndian.Uint32(b[16:]))
		b = b[20:]
		if len(b) != dlen {
			return ErrCorrupt
		}
		r.Data = b
	case TypeLogicalUpdate:
		if len(b) < 22 {
			return ErrCorrupt
		}
		r.TxnID = binary.LittleEndian.Uint64(b)
		r.RecordID = binary.LittleEndian.Uint64(b[8:])
		r.OpCode = binary.LittleEndian.Uint16(b[16:])
		dlen := int(binary.LittleEndian.Uint32(b[18:]))
		b = b[22:]
		if len(b) != dlen {
			return ErrCorrupt
		}
		r.Data = b
	case TypeCommit, TypeAbort:
		if len(b) < 8 {
			return ErrCorrupt
		}
		r.TxnID = binary.LittleEndian.Uint64(b)
	case TypeBeginCheckpoint:
		if len(b) < 22 {
			return ErrCorrupt
		}
		r.CheckpointID = binary.LittleEndian.Uint64(b)
		r.Timestamp = binary.LittleEndian.Uint64(b[8:])
		r.TargetCopy = b[16]
		r.Algorithm = b[17]
		n := int(binary.LittleEndian.Uint32(b[18:]))
		b = b[22:]
		if len(b) != n*16 {
			return ErrCorrupt
		}
		for ; len(b) > 0; b = b[16:] {
			// alloc:allowed(grows only for a marker with more active transactions than any before it in the scan)
			r.ActiveTxns = append(r.ActiveTxns, ActiveTxn{
				TxnID:    binary.LittleEndian.Uint64(b),
				FirstLSN: LSN(binary.LittleEndian.Uint64(b[8:])),
			})
		}
	case TypeEndCheckpoint:
		if len(b) < 9 {
			return ErrCorrupt
		}
		r.CheckpointID = binary.LittleEndian.Uint64(b)
		r.TargetCopy = b[8]
	default:
		return ErrCorrupt
	}
	return nil
}

// decodeFrame verifies the framing and checksum of the record starting
// at buf[0] and decodes it into r in place (see decodePayload for the
// aliasing). It returns the record's total framed length; buf may extend
// past the record.
//
// perf:hotpath(recovery verifies every surviving log record through here)
func decodeFrame(buf []byte, r *Record) (int, error) {
	if len(buf) < headerSize {
		return 0, ErrCorrupt
	}
	plen := int(binary.LittleEndian.Uint32(buf))
	if plen <= 0 || plen > MaxPayload {
		return 0, ErrCorrupt
	}
	total := headerSize + plen + trailerSize
	if len(buf) < total {
		return 0, ErrCorrupt
	}
	wantCRC := binary.LittleEndian.Uint32(buf[4:])
	payload := buf[headerSize : headerSize+plen]
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return 0, ErrCorrupt
	}
	if tl := int(binary.LittleEndian.Uint32(buf[headerSize+plen:])); tl != plen {
		return 0, ErrCorrupt
	}
	if err := decodePayload(payload, r); err != nil {
		return 0, err
	}
	return total, nil
}

// decodeFrom decodes the record starting at buf[0] into a new Record that
// owns its bytes, and returns it with its total framed length. buf may
// extend past the record.
func decodeFrom(buf []byte) (*Record, int, error) {
	var r Record
	total, err := decodeFrame(buf, &r)
	if err != nil {
		return nil, 0, err
	}
	return r.Clone(), total, nil
}
