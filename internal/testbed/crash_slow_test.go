//go:build slow

package testbed

import (
	"fmt"
	"testing"

	"mmdb"
	"mmdb/internal/faultfs"
)

// TestCrashMatrixSoak is the extended matrix behind -tags slow: every
// cell of the full matrix across many seeds and a longer workload, so
// fault hits land in rarer phases (deep into checkpoints, during log
// compaction, across several ping-pong generations). Run it with
//
//	go test -tags slow -run TestCrashMatrixSoak ./internal/testbed/
func TestCrashMatrixSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; run without -short")
	}
	for _, alg := range mmdb.Algorithms {
		for _, cell := range matrixCells(false, 1) {
			if alg == mmdb.FastFuzzy && (cell.point == "wal.write" || cell.point == "wal.sync" || cell.point == "wal.rename") {
				continue
			}
			for seed := int64(100); seed < 120; seed++ {
				name := fmt.Sprintf("%v/%s/%v/seed%d", alg, cell.point, cell.kind, seed)
				alg, cell, seed := alg, cell, seed
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					rep, err := RunCrash(CrashScenario{
						Algorithm: alg,
						Point:     cell.point,
						Kind:      cell.kind,
						Seed:      seed,
						Dir:       t.TempDir(),
						Txns:      600,
						CkptEvery: 25,
					})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if cell.kind != faultfs.ErrIO && !rep.Crashed {
						t.Fatalf("seed %d: fault never fired", seed)
					}
				})
			}
		}
	}
}
