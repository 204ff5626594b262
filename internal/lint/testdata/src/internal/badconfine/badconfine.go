// Package badconfine is a lint fixture for the stepconfine analyzer:
// Superstep.Run closures must not write variables captured from the
// enclosing scope.
package badconfine

import "fixture.example/internal/dbsp"

// BuildBad returns a program whose Run closure increments a captured
// counter — shared state that races across processors: finding.
func BuildBad(v int) *dbsp.Program {
	total := 0
	steps := []dbsp.Superstep{
		{Label: 0, Run: func(c *dbsp.Ctx) {
			total++
		}},
	}
	_ = total
	return &dbsp.Program{Name: "bad", V: v, Steps: steps}
}

// WireBad assigns a Run imperatively; the closure appends to a
// captured slice: finding.
func WireBad(log []string) dbsp.Superstep {
	var st dbsp.Superstep
	st.Run = func(c *dbsp.Ctx) {
		log = append(log, "step")
	}
	return st
}

// KeepCtx saves the handler's Ctx in a captured variable: finding.
// Besides racing, the saved pointer outlives the handler call, and the
// engines rebind one Ctx to every processor a worker runs, so it would
// later see another processor's context.
func KeepCtx(v int) *dbsp.Program {
	var kept *dbsp.Ctx
	steps := []dbsp.Superstep{
		{Label: 0, Run: func(c *dbsp.Ctx) {
			kept = c
		}},
	}
	_ = kept
	return &dbsp.Program{Name: "keep", V: v, Steps: steps}
}

// BuildGood reads captured state (the lookup table and loop constant)
// and writes only through the Ctx: no findings.
func BuildGood(v int, pi []int) *dbsp.Program {
	offset := 1
	return &dbsp.Program{
		Name: "good",
		V:    v,
		Steps: []dbsp.Superstep{
			{Label: 0, Run: func(c *dbsp.Ctx) {
				local := pi[c.ID()] + offset
				c.Store(0, dbsp.Word(local))
				c.Send(pi[c.ID()], c.Load(0))
			}},
			{Label: 0},
		},
	}
}
