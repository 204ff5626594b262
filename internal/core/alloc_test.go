package core

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
)

// TestSimulatorAllocsIndependentOfV is the allocation gate of the
// simulators' handler path: each simulator runs every guest handler on
// one reused Ctx, so between v = 2^8 and v = 2^12 the only objects a
// run gains are the results' per-processor context snapshots (one per
// processor) and the pinned constant measured here. The program is
// compute-only so that message routing, whose sort buffers scale with
// the message volume, stays out of the count. Allocating a store and a
// Ctx per processor-step, as the simulators once did, adds
// 2·(2^12−2^8)·9 = 69120 objects on this program.
func TestSimulatorAllocsIndependentOfV(t *testing.T) {
	const small, big = 1 << 8, 1 << 12
	f := cost.Poly{Alpha: 0.5}
	sims := []struct {
		name  string
		extra float64
		run   func(*dbsp.Program) error
	}{
		{"hmm", 1, func(p *dbsp.Program) error { _, err := OnHMM(p, f); return err }},
		{"bt", 0, func(p *dbsp.Program) error { _, err := OnBT(p, f); return err }},
		{"dbsp", 1, func(p *dbsp.Program) error { _, err := OnDBSP(p, f, 4); return err }},
	}
	for _, s := range sims {
		t.Run(s.name, func(t *testing.T) {
			a, b := simAllocs(t, s.run, small), simAllocs(t, s.run, big)
			t.Logf("allocs per run: v=2^8 %.0f, v=2^12 %.0f", a, b)
			if bound := float64(big-small) + s.extra; b-a > bound {
				t.Fatalf("allocations grow with v beyond the result snapshots: %.0f at v=2^8, %.0f at v=2^12 (bound +%.0f); a per-processor allocation is back on the handler path",
					a, b, bound)
			}
		})
	}
}

// simAllocs reports the mean objects one simulation of a compute-only
// program at machine size v allocates.
func simAllocs(t *testing.T, run func(*dbsp.Program) error, v int) float64 {
	t.Helper()
	prog := progtest.ComputeOnly(v, 3, 7, 6, 5, 4, 3, 2, 1, 0)
	if err := run(prog); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		if err := run(prog); err != nil {
			panic(err)
		}
	})
}
