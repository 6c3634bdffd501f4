package engine

// The checkpoint sweep (DESIGN.md §15.1): one batch driver for all eight
// algorithms.
//
// An algorithm family is a sweepProtocol — a per-segment prepare rule plus
// three flags — and Engine.sweep runs it over every segment in batches of
// CheckpointParallelism slots:
//
//	pick     the next batch (index order; Figure 3.1's order for two-color)
//	prepare  one worker per slot: latch, decide, capture or flush latched
//	barrier  ONE waitLSN for the batch-maximum LSN the prepares recorded
//	finish   one worker per slot: flush the capture, unlock, run the hook
//
// Slot 0 of every fan-out runs on the coordinator itself, so a batch of
// one — CheckpointParallelism = 1, or the tail of any sweep — spawns no
// goroutine: the serial checkpointer is the degenerate batch, not a second
// code path. Each worker holds at most one segment latch at a time, and
// workers are ALWAYS joined before the sweep returns, error or not: an
// engine Close that drains the checkpoint (via ckptMu) has therefore also
// drained the pool.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mmdb/internal/lockmgr"
	"mmdb/internal/storage"
	"mmdb/internal/wal"
)

// sweepProtocol is one checkpointer family's per-segment rule.
type sweepProtocol struct {
	// prepare secures slot s's segment under its latch: it decides whether
	// the segment owes the target copy a flush and then either captures the
	// image for finish to write (s.data, with s.lsn if the write-ahead rule
	// needs a log wait first) or, for the flush-while-latched variants,
	// writes it on the spot (flushSlot). It leaves the latch released.
	prepare func(e *Engine, run *ckptRun, s *ckptSlot)
	// copies gives every slot a segment-sized buffer for prepare to
	// snapshot into (the *COPY variants); without it s.buf is nil.
	copies bool
	// twoColor picks segments in Figure 3.1's order and hands each to
	// prepare with the checkpointer's shared lock-manager lock held.
	twoColor bool
	// drainsPending runs HOURGLASS's pending-list drain between batches.
	drainsPending bool
}

// ckptSlot carries one segment through one batch. Between joins a slot is
// touched by exactly one worker, so it needs no locking.
type ckptSlot struct {
	idx  int     // segment index
	buf  []byte  // slot-owned snapshot buffer (sweepProtocol.copies)
	data []byte  // image finish must flush; nil when nothing is left to write
	lsn  wal.LSN // the log must be durable past this before data is flushed
	// locked: the checkpointer holds the segment's lock-manager S lock.
	locked bool
	// cleared: prepare cleared Dirty[target]; if no image reaches the
	// target copy after all, the sweep must set the bit again.
	cleared bool
	flushed bool // an image reached the target copy
	// painted: HOURGLASS's drain had already secured the segment, so the
	// scan counts it neither flushed nor skipped.
	painted bool
	began   time.Time
	err     error
}

// sweepTally accumulates a sweep's per-segment outcomes.
type sweepTally struct{ flushed, skipped int }

func (t *sweepTally) add(s *ckptSlot) {
	switch {
	case s.flushed:
		t.flushed++
	case !s.painted:
		t.skipped++
	}
}

// workList hands out the segments of one sweep. Segments [next, n) have
// not been offered yet; held are the white segments a two-color pick
// passed over because a writer had them exclusively locked.
type workList struct {
	next, n int
	held    []int
}

// fanOut runs fn(w) for w in [0, count) — fn(0) on the calling goroutine,
// the rest concurrently — and joins all of them before returning. A count
// of one therefore costs no goroutine, and no channel either.
func fanOut(count int, fn func(w int)) {
	if count == 1 {
		fn(0)
		return
	}
	done := make(chan struct{})
	for w := 1; w < count; w++ {
		// goleak:joins the receive loop below takes exactly one token per worker
		go func(w int) {
			defer func() { done <- struct{}{} }()
			fn(w)
		}(w)
	}
	fn(0)
	// ctxcheck:exempt(the join is mandatory: every worker sends exactly one token via its deferred send, so this loop always terminates)
	for w := 1; w < count; w++ {
		<-done
	}
}

// sweep is the checkpoint sweep: it drives protocol p over every segment
// and returns the totals CheckpointContext records. ctx is consulted
// between batches, never mid-segment.
//
// On any error the batch in flight is settled before returning: every
// lock-manager lock still held is released and restoreDirty undoes the
// dirty-bit bookkeeping of every segment that was not written.
//
// lockorder:held Engine.ckptMu
func (e *Engine) sweep(ctx context.Context, run *ckptRun, p sweepProtocol) (flushed, skipped int, bytes int64, err error) {
	segBytes := e.store.Config().SegmentBytes
	slots := make([]ckptSlot, e.params.CheckpointParallelism)
	if p.copies {
		for i := range slots {
			slots[i].buf = make([]byte, segBytes)
		}
	}
	work := workList{n: e.store.NumSegments()}
	var tally sweepTally
	prepare := func(w int) {
		slots[w].began = time.Now()
		p.prepare(e, run, &slots[w])
	}
	finish := func(w int) { e.finishSlot(run, &slots[w], w) }

	var batch []ckptSlot
	for work.next < work.n || len(work.held) > 0 {
		if err = ctx.Err(); err != nil {
			break
		}
		if p.drainsPending {
			if err = e.hgDrain(run, &tally); err != nil {
				break
			}
		}
		if batch, err = e.pickBatch(&work, slots, p.twoColor); err != nil {
			break
		}
		e.eo.ckptBatchH.Observe(uint64(len(batch)))

		fanOut(len(batch), prepare)
		if err = batchErr(batch); err == nil {
			// One write-ahead wait covers the whole batch; NilLSN — no
			// prepare recorded a position — returns at once.
			err = e.waitLSN(batchLSN(batch))
		}
		if err == nil {
			fanOut(len(batch), finish)
			err = batchErr(batch)
		}
		if err != nil {
			for i := range batch {
				e.unlockSlot(&batch[i])
				e.restoreDirty(run, &batch[i])
			}
			break
		}
		for i := range batch {
			tally.add(&batch[i])
		}
		// Index order secures every segment below work.next once its batch
		// joins; only copy-on-update updaters read the cursor. Updaters of
		// batch segments secured a moment before it moves take spurious
		// old copies, which dropOldCopies releases at the end of the run.
		run.curSeg.Store(int64(work.next - 1))
	}
	return tally.flushed, tally.skipped, int64(tally.flushed) * int64(segBytes), err
}

// pickBatch fills slots with the next segments to secure and returns the
// filled prefix, never empty while the work list is not.
//
// Six algorithms take segments in index order. The two-color pair follows
// Figure 3.1: take any white segment that is not exclusively locked —
// those passed over earlier first, then new ones — and only when a whole
// pass over the remaining white segments secured nothing, "request read
// (shared) lock on any white segment and wait". The checkpointer holds no
// lock at that point, so the wait cannot deadlock against a writer.
//
// lockorder:held Engine.ckptMu
// lockorder:acquires mmdb/internal/lockmgr.Manager.table
func (e *Engine) pickBatch(work *workList, slots []ckptSlot, twoColor bool) ([]ckptSlot, error) {
	count := 0
	take := func(i int) {
		slots[count] = ckptSlot{idx: i, buf: slots[count].buf, lsn: wal.NilLSN, locked: twoColor}
		count++
	}
	offer := func(i int) bool {
		if count == len(slots) || twoColor && !e.locks.TryLock(checkpointerOwner, segKey(i), lockmgr.S) {
			return false
		}
		take(i)
		return true
	}
	held := work.held[:0]
	for _, i := range work.held {
		if !offer(i) {
			held = append(held, i)
		}
	}
	work.held = held
	for ; work.next < work.n && count < len(slots); work.next++ {
		if !offer(work.next) {
			work.held = append(work.held, work.next)
		}
	}
	if count == 0 && len(work.held) > 0 {
		i := work.held[0]
		if err := e.locks.Lock(checkpointerOwner, segKey(i), lockmgr.S, 0); err != nil {
			if errors.Is(err, lockmgr.ErrShutdown) {
				return nil, ErrStopped
			}
			return nil, fmt.Errorf("engine: two-color wait on segment %d: %w", i, err)
		}
		work.held = work.held[1:]
		take(i)
	}
	return slots[:count], nil
}

// batchErr returns the lowest-slot error of a joined batch.
func batchErr(batch []ckptSlot) error {
	for i := range batch {
		if batch[i].err != nil {
			return batch[i].err
		}
	}
	return nil
}

// batchLSN returns the latest write-ahead position a batch's prepares
// recorded, NilLSN if none did.
func batchLSN(batch []ckptSlot) wal.LSN {
	lsn := wal.NilLSN
	for i := range batch {
		lsn = wal.MaxLSN(lsn, batch[i].lsn)
	}
	return lsn
}

// finishSlot is the second half of every protocol: flush the image prepare
// captured, release the lock-manager lock if prepare kept it (2CFLUSH holds
// it "for the duration of a disk I/O operation, plus any delay needed to
// satisfy the LSN condition"), and run the fault hook — once per segment
// the scan secures, clean or not, for every algorithm.
func (e *Engine) finishSlot(run *ckptRun, s *ckptSlot, worker int) {
	if s.data != nil {
		e.flushSlot(run, s, s.data)
	}
	e.unlockSlot(s)
	if s.err == nil {
		s.err = e.segmentDone(run, worker, s.idx)
	}
	e.eo.ckptWorkerH.ObserveSince(s.began)
}

// flushSlot writes data to the target copy as slot s's segment image.
// Every segment write of every checkpointer goes through here: from
// finishSlot with a captured image, or from a prepare that flushes the
// live segment while still latched.
//
// walorder:stable-tail a captured image is flushed only after sweep's batch barrier waited for the LSN its prepare recorded; prepares that record none, or flush latched, write under FASTFUZZY's stable log tail (Section 4) or write begin-state images, durable since the begin-checkpoint record's log force (Engine.CheckpointContext)
func (e *Engine) flushSlot(run *ckptRun, s *ckptSlot, data []byte) {
	if s.err = e.flushSegment(run, s.idx, data); s.err == nil {
		s.flushed = true
	}
}

// unlockSlot releases the slot's lock-manager lock, if it still holds one.
func (e *Engine) unlockSlot(s *ckptSlot) {
	if s.locked {
		e.locks.Unlock(checkpointerOwner, segKey(s.idx))
		s.locked = false
	}
}

// restoreDirty sets Dirty[target] again for a slot whose prepare cleared it
// but whose image did not reach the target copy. Without this the next
// checkpoints would skip the segment and seal its stale (or torn) slot
// into a complete copy, and log compaction would then drop the only other
// record of its updates.
func (e *Engine) restoreDirty(run *ckptRun, s *ckptSlot) {
	if s.cleared && !s.flushed {
		seg := e.store.Seg(s.idx)
		seg.Lock()
		seg.Dirty[run.target] = true
		seg.Unlock()
	}
}

// takeDirty reports whether seg owes the run's target copy a flush — a
// full checkpoint, or the segment is dirty for that copy — and if so
// clears the dirty bit on the slot's account.
//
// lockcheck:held seg
func (e *Engine) takeDirty(run *ckptRun, seg *storage.Segment, s *ckptSlot) bool {
	if !e.params.Full && !seg.Dirty[run.target] {
		return false
	}
	seg.Dirty[run.target] = false
	s.cleared = true
	return true
}

// snapshot copies seg into the slot's buffer for finish to flush and
// returns the LSN the copy is current to (the S_seg data movement the
// *COPY variants pay to shorten their latch or lock hold).
//
// lockcheck:held seg
func (e *Engine) snapshot(seg *storage.Segment, s *ckptSlot) wal.LSN {
	s.data = s.buf
	e.ctr.checkpointerCopy.Add(1)
	return seg.Snapshot(s.buf)
}
