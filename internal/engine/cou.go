package engine

// prepareCOU is the per-segment rule of the copy-on-update checkpoints of
// Section 3.2.2 (Figure 3.3, after DeWitt et al.).
//
// Checkpoint begin has already quiesced the system, stamped the checkpoint
// τ(CH), logged the begin-checkpoint record and flushed the log tail (see
// Engine.CheckpointContext). The transaction-consistent state at that
// instant is the snapshot the sweep writes out. Transactions updating a
// not-yet-dumped segment first preserve its old version (Txn.install), so
// for each segment, in order, the sweep flushes:
//
//   - the old copy, if one exists (the segment was updated after the
//     checkpoint began) — it is private to the checkpointer once taken, so
//     it is flushed with no latch — or
//   - the live segment, which provably contains only pre-checkpoint data
//     (any post-begin update ahead of the cursor would have created an old
//     copy first): COUCOPY (the slot has a buffer) copies it under the
//     latch and flushes after unlatching; COUFLUSH flushes while latched.
//
// An old copy is flushed if the segment was dirty for the target copy when
// it was preserved (or on a full checkpoint). The live segment's dirty bit
// stays set — its newer contents still owe the target copy a flush at the
// next checkpoint.
//
// No LSN is recorded: every update in the snapshot predates the
// begin-checkpoint record, whose log-tail flush made it durable.
func (e *Engine) prepareCOU(run *ckptRun, s *ckptSlot) {
	seg := e.store.Seg(s.idx)
	seg.Lock()
	if old := seg.TakeOld(); old != nil {
		e.ctr.bumpCOULive(-1)
		if e.params.Full || old.Dirty[run.target] {
			s.data = old.Data
		}
	} else if e.takeDirty(run, seg, s) {
		if s.buf != nil {
			e.snapshot(seg, s)
		} else {
			e.flushSlot(run, s, seg.Data)
		}
	}
	seg.Unlock()
}
