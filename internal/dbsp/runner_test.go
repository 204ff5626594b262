package dbsp

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cost"
)

// reuseEngines runs prog on every engine whose handlers share one
// reused runner per worker or shard: the native engine at one worker
// (inline) and at two, and the sharded engine at one and four shards.
var reuseEngines = []struct {
	name string
	run  func(*Program) (*Result, error)
}{
	{"native1", func(p *Program) (*Result, error) { return runWithWorkers(1, p) }},
	{"native2", func(p *Program) (*Result, error) { return runWithWorkers(2, p) }},
	{"sharded1", func(p *Program) (*Result, error) { return RunSharded(p, cost.Poly{Alpha: 0.5}, 1) }},
	{"sharded4", func(p *Program) (*Result, error) { return RunSharded(p, cost.Poly{Alpha: 0.5}, 4) }},
}

// runWithWorkers runs prog natively with GOMAXPROCS pinned, which fixes
// the native engine's worker count and so which processors share a
// runner.
func runWithWorkers(workers int, prog *Program) (*Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	return Run(prog, cost.Poly{Alpha: 0.5})
}

// TestTauIsMaxAcrossReusedRunner pins that a runner reused across the
// processors of one worker or shard starts every processor at zero
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
// processor 5 panics after a Store, and every engine reports exactly
// "processor 5: handler panic: boom". Each processor checks that its
// Ctx id matches the id Init wrote into its own context, so a runner
// left bound to the panicking processor would surface as a second
// handler error on the processors that follow it in the same worker.
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

	// The native engine keeps running a worker's processors after one
	// panics: the ones after it must run on their own contexts.
	for _, workers := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			ctxs, buf := NewContexts(prog), newStepBuffers(prog.V)
			if _, err := runStepHooked(prog, ctxs, prog.Steps[0], nil, true, buf); err == nil {
				t.Fatalf("native%d: no error", workers)
			}
			for p, err := range buf.errs {
				if (err != nil) != (p == bad) {
					t.Errorf("native%d processor %d: error %v", workers, p, err)
				}
				if got := ctxs[p][0]; got != Word(p+100) {
					t.Errorf("native%d processor %d: stored %d, want %d", workers, p, got, p+100)
				}
			}
		}()
	}
}
