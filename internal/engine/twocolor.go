package engine

// prepareTwoColor is the per-segment rule of the black/white locking
// checkpoints of Section 3.2.1 (after Pu's on-the-fly consistent reading
// algorithm, Figure 3.1).
//
// Every segment starts white; the sweep picks a white segment that is not
// exclusively locked (pickBatch), locks it in shared mode, and hands it
// here to be processed and painted black. The shared segment lock conflicts
// with the intention-exclusive locks writers hold, so a processed segment
// contains no uncommitted data, and the two-color abort rule in the
// transaction path serializes transactions entirely before or after the
// checkpoint.
//
// 2CCOPY (the slot has a buffer) copies the segment under the lock and
// releases it at once — "the segment can be unlocked as soon as it is
// copied" — trading data movement for a shorter lock hold. 2CFLUSH
// captures the live image instead and keeps the lock until finishSlot has
// written it: the lock excludes writers, so the image is stable across the
// LSN wait and the disk write without the latch. A clean segment never
// needs the lock past the paint.
//
// lockorder:held mmdb/internal/lockmgr.Manager.table
func (e *Engine) prepareTwoColor(run *ckptRun, s *ckptSlot) {
	seg := e.store.Seg(s.idx)
	seg.Lock()
	if e.takeDirty(run, seg, s) {
		if s.buf != nil {
			s.lsn = e.snapshot(seg, s)
		} else {
			s.lsn, s.data = seg.LastLSN, seg.Data
		}
	}
	seg.Paint = run.id // paint black
	seg.Unlock()
	if s.buf != nil || s.data == nil {
		e.unlockSlot(s)
	}
}
