package dbsp

import (
	"fmt"
	"testing"

	"repro/internal/cost"
)

// reuseEngines runs prog at shard counts whose shards each run several
// processors on one reused runner: one shard (inline) and four (on
// goroutines).
var reuseEngines = []struct {
	name string
	run  func(*Program) (*Result, error)
}{
	{"sharded1", func(p *Program) (*Result, error) { return RunSharded(p, cost.Poly{Alpha: 0.5}, 1) }},
	{"sharded4", func(p *Program) (*Result, error) { return RunSharded(p, cost.Poly{Alpha: 0.5}, 4) }},
}

// TestTauIsMaxAcrossReusedRunner pins that a runner reused across the
// processors of one shard starts every processor at zero
// ops: each step's τ is the heaviest processor's work, never a running
// sum over the processors that shared the runner before it.
func TestTauIsMaxAcrossReusedRunner(t *testing.T) {
	const heavy = 1000
	step := func(busy, idle int) Superstep {
		return Superstep{Label: 0, Run: func(c *Ctx) {
			switch c.ID() {
			case busy:
				c.Work(heavy)
			case idle:
			default:
				c.Work(1)
			}
		}}
	}
	prog := &Program{
		Name:   "tau-reset",
		V:      16,
		Layout: Layout{Data: 1},
		Steps:  []Superstep{step(0, 1), step(1, 0), step(5, 4)},
	}
	for _, e := range reuseEngines {
		res, err := e.run(prog)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for s, sc := range res.Steps {
			if sc.Tau != heavy {
				t.Errorf("%s step %d: Tau = %d, want the per-processor max %d", e.name, s, sc.Tau, heavy)
			}
		}
	}
}

// TestHandlerPanicReusedCtx pins the error contract on a reused runner:
// processor 5 panics after a Store, and every shard count reports
// exactly "processor 5: handler panic: boom". Each processor checks
// that its Ctx id matches the id Init wrote into its own context, so a
// runner that rebinds the id but not the context would surface as a
// handler error at a processor below 5 that shares its shard's runner.
func TestHandlerPanicReusedCtx(t *testing.T) {
	const bad = 5
	prog := &Program{
		Name:   "panicky",
		V:      16,
		Layout: Layout{Data: 2},
		Init:   func(p int, data []Word) { data[1] = Word(p) },
		Steps: []Superstep{{Label: 0, Run: func(c *Ctx) {
			if got := c.Load(1); got != Word(c.ID()) {
				panic(fmt.Sprintf("Ctx bound to processor %d runs on the context of %d", c.ID(), got))
			}
			c.Store(0, Word(c.ID()+100))
			if c.ID() == bad {
				panic("boom")
			}
		}}},
	}
	want := `dbsp: program "panicky" superstep 0: processor 5: handler panic: boom`
	for _, e := range reuseEngines {
		if _, err := e.run(prog); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", e.name, err, want)
		}
	}
}
