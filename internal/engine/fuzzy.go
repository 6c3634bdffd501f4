package engine

// prepareFuzzy is the per-segment rule of the fuzzy checkpoints of
// Section 3.1.
//
// FUZZYCOPY (the slot has a buffer): each dirty segment is copied into a
// main-memory I/O buffer under a brief latch; the buffered copy is flushed
// to the backup disks only once the log is durable past the segment's last
// update (the LSN condition), which preserves the write-ahead rule with no
// transaction synchronization at all.
//
// FASTFUZZY: with a stable log tail every logged update is already
// durable, so segments are flushed directly from the database with neither
// the buffer copy nor the LSN check (Section 4). The latch only excludes
// concurrent installs for the duration of a buffered file write.
//
// The resulting backup is fuzzy: a transaction committing during the sweep
// may have some of its updates in flushed segments and others not. The
// begin-checkpoint marker's active-transaction list tells recovery how far
// back the redo scan must start to repair this.
func (e *Engine) prepareFuzzy(run *ckptRun, s *ckptSlot) {
	seg := e.store.Seg(s.idx)
	seg.Lock()
	if e.takeDirty(run, seg, s) {
		if s.buf != nil {
			s.lsn = e.snapshot(seg, s)
		} else {
			e.flushSlot(run, s, seg.Data)
		}
	}
	seg.Unlock()
}
