package hmmsim

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/hmm"
)

// SimulateNaive is the step-by-step baseline the paper argues against
// (Section 5.3): it simulates one entire superstep after another for
// all v processors, leaving every context in its home block. Each
// superstep therefore touches all v contexts and pays Θ(µ·v·f(µ·v))
// regardless of the superstep's label — time ω(v) per superstep for any
// unbounded access function — whereas the Figure 1 scheduler confines
// an i-superstep's traffic to the top µ·v/2^i cells. Experiment E04
// measures the gap.
func SimulateNaive(prog *dbsp.Program, f cost.Func) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("hmmsim: nil access function")
	}
	mu := int64(prog.Mu())
	v := prog.V
	l := prog.Layout
	m := hmm.New(f, int64(v)*mu)
	init := dbsp.NewContexts(prog)
	for p, ctx := range init {
		m.PokeRange(int64(p)*mu, ctx)
	}

	store := &hmmStore{m: m}
	c := dbsp.NewCtx(store, l, 0, v, 0)
	for s, step := range prog.Steps {
		if step.Run == nil {
			continue
		}
		// Local computation, context in place at block p.
		for p := 0; p < v; p++ {
			store.base = int64(p) * mu
			c.Reset(p, step.Label)
			func() {
				defer func() {
					if r := recover(); r != nil {
						panic(fmt.Sprintf("hmmsim: naive: superstep %d proc %d: %v", s, p, r))
					}
				}()
				step.Run(c)
			}()
		}
		// Delivery: clear all inboxes, scan all outboxes in order.
		for p := 0; p < v; p++ {
			m.Write(int64(p)*mu+int64(l.InCountOff()), 0)
		}
		for p := 0; p < v; p++ {
			base := int64(p) * mu
			sent := m.Read(base + int64(l.OutCountOff()))
			for e := int64(0); e < sent; e++ {
				dest := m.Read(base + int64(l.OutboxOff(int(e))))
				payload := m.Read(base + int64(l.OutboxOff(int(e))) + 1)
				dbase := dest * mu
				n := m.Read(dbase + int64(l.InCountOff()))
				m.Write(dbase+int64(l.InboxOff(int(n))), int64(p))
				m.Write(dbase+int64(l.InboxOff(int(n)))+1, payload)
				m.Write(dbase+int64(l.InCountOff()), n+1)
			}
			if sent > 0 {
				m.Write(base+int64(l.OutCountOff()), 0)
			}
		}
	}

	res := &Result{
		Machine:       m,
		HostCost:      m.Cost(),
		Stats:         m.Stats(),
		SmoothedSteps: len(prog.Steps),
	}
	res.Contexts = make([][]Word, v)
	for p := 0; p < v; p++ {
		res.Contexts[p] = m.Snapshot(int64(p)*mu, mu)
	}
	return res, nil
}
