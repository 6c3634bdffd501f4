package engine

import (
	"sync"
	"testing"
	"time"

	"mmdb/internal/obs"
	"mmdb/internal/storage"
	"mmdb/internal/wal"
)

// TestExecWriteAllocationFree pins the single-record write+commit path
// at zero heap allocations per operation: the transaction comes from
// the engine's spare slot, before-images from the per-txn freelist, and
// the WAL encode lands in the preallocated tail. A regression here
// breaks the perf:hotpath contract enforced by lint/alloccheck.
func TestExecWriteAllocationFree(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()

	val := encVal(7)
	// Warm up: first write takes the lazy allocations (txn, freelist,
	// lock table entries) that later writes reuse.
	for i := 0; i < 64; i++ {
		if err := e.ExecWrite(3, val); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(512, func() {
		if err := e.ExecWrite(3, val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ExecWrite: %v allocs/op, want 0", allocs)
	}
}

// TestExecWriteAllocationFreeTraced re-pins the zero-allocation contract
// with the full observability surface armed: every transaction sampled
// by the span tracer (SpanSampleEvery 1) and the slow-op watchdog
// enabled. Span begin/end are atomic stores into the preallocated ring
// and the watchdog's under-threshold check is one atomic load, so
// tracing must not cost a single allocation on the hot path.
func TestExecWriteAllocationFreeTraced(t *testing.T) {
	p := testParams(t, FuzzyCopy)
	p.SpanSampleEvery = 1
	p.SlowOpCommitThreshold = time.Hour // armed but never tripping
	e := mustOpen(t, p)
	defer e.Close()

	val := encVal(7)
	for i := 0; i < 64; i++ {
		if err := e.ExecWrite(3, val); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(512, func() {
		if err := e.ExecWrite(3, val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ExecWrite with tracing: %v allocs/op, want 0", allocs)
	}
	spans := e.SpanEvents()
	if len(spans) == 0 {
		t.Fatal("no spans recorded with SpanSampleEvery=1")
	}
	var commits, children int
	for _, s := range spans {
		if s.Kind == obs.SpanCommit {
			commits++
		}
		if s.Parent != 0 {
			children++
		}
	}
	if commits == 0 || children == 0 {
		t.Errorf("span ring has %d commit roots and %d children, want both > 0", commits, children)
	}
	if n := e.Watchdog().Trips(); n != 0 {
		t.Errorf("watchdog tripped %d times under an hour-long threshold", n)
	}
}

// TestTxnCommitAllocationBounded pins the explicit Begin/Write/Commit
// cycle's designed cost: a user-held Txn is never recycled (recycleTxn
// covers only ExecWrite-internal transactions, so a caller retaining a
// finished Txn can't observe it mutating under a new identity), which
// leaves the transaction object and its write map as the only per-cycle
// allocations. The bound catches regressions such as re-introduced
// closure captures or before-image boxing without promising the zero
// that only the closure-free ExecWrite path can deliver.
func TestTxnCommitAllocationBounded(t *testing.T) {
	e := mustOpen(t, testParams(t, FuzzyCopy))
	defer e.Close()

	val := encVal(9)
	cycle := func() {
		txn, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Write(5, val); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(512, cycle)
	if allocs > 4 {
		t.Errorf("Begin/Write/Commit: %v allocs/op, want ≤ 4 (txn object, write map, image copy, map bucket)", allocs)
	}
}

// TestRedoRouterAllocationFree pins the partitioned redo router at zero
// heap allocations per routed record: the payload is copied into a
// preallocated per-worker slab, a full slab crosses to its worker in one
// channel send, and the worker hands it back through the free list.
func TestRedoRouterAllocationFree(t *testing.T) {
	st, err := storage.New(testStorage())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	router := newRedoRouter(st, workers, testStorage().RecordBytes)
	var wg sync.WaitGroup
	wg.Add(workers)
	routed := make([]int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for b := range router.chans[w] {
				routed[w] += len(b.ops)
				router.applied(b)
			}
		}(w)
	}

	rec := &wal.Record{Type: wal.TypeUpdate, TxnID: 1, Data: make([]byte, testStorage().RecordBytes)}
	next := uint64(0)
	routeOne := func() {
		rec.RecordID = next % uint64(testStorage().NumRecords)
		next++
		router.route(rec)
	}
	// Several times the batches in circulation, so slabs are recycled
	// within the measured runs.
	const runs = 4 * workers * (redoBatchesInFlight + 2) * redoBatchRecords
	allocs := testing.AllocsPerRun(runs, routeOne)
	router.finish()
	wg.Wait()
	if allocs != 0 {
		t.Errorf("route: %v allocs/record, want 0", allocs)
	}
	total := 0
	for _, n := range routed {
		total += n
	}
	if total != int(next) {
		t.Errorf("workers received %d of %d routed records", total, next)
	}
}
