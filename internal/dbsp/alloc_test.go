package dbsp_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
)

// allocLabels is one Rotate pass per label 0..7: valid at both machine
// sizes, so the two runs execute the same supersteps.
var allocLabels = []int{7, 6, 5, 4, 3, 2, 1, 0}

// TestEngineAllocsIndependentOfV is the allocation gate of the handler
// path. The engine reuses one handler view per shard, so nothing it
// allocates per processor-step scales with v. The growth bounds below
// are the measured extra objects a run at v = 2^12 allocates over the
// same program at v = 2^8: none at either shard count. The exchange
// buckets would grow with the message volume, but only messages that
// cross a shard boundary enter them. At sharded1 every step runs fused;
// at sharded4 so do labels 7..2, and the label-1 and label-0 rings,
// whose clusters span shards, send exactly four messages across shard
// boundaries at either v. Allocating a store and a Ctx per
// processor-step, as the engine once did, grows by
// 2·(2^12−2^8)·9 = 69120 objects on this program. sharded4 runs shards
// 1..3 on goroutines.
func TestEngineAllocsIndependentOfV(t *testing.T) {
	g := cost.Poly{Alpha: 0.5}
	engines := []struct {
		name   string
		growth float64
		run    func(*dbsp.Program) error
	}{
		{"sharded1", 0, func(p *dbsp.Program) error { _, err := dbsp.RunSharded(p, g, 1); return err }},
		{"sharded4", 0, func(p *dbsp.Program) error { _, err := dbsp.RunSharded(p, g, 4); return err }},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			small, big := allocsOf(t, e.run, 1<<8), allocsOf(t, e.run, 1<<12)
			t.Logf("allocs per run: v=2^8 %.0f, v=2^12 %.0f", small, big)
			if big-small > e.growth {
				t.Fatalf("allocations grow with v: %.0f at v=2^8, %.0f at v=2^12 (bound +%.0f); a per-processor allocation is back on the handler path",
					small, big, e.growth)
			}
		})
	}
}

// allocsOf reports the mean objects one run of Rotate(v) allocates.
func allocsOf(t *testing.T, run func(*dbsp.Program) error, v int) float64 {
	t.Helper()
	prog := progtest.Rotate(v, allocLabels...)
	if err := run(prog); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(50, func() {
		if err := run(prog); err != nil {
			panic(err)
		}
	})
}
