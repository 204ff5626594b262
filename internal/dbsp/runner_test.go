package dbsp

import (
	"fmt"
	"strconv"
	"strings"
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

// TestCtxMisuseErrors pins the exact error RunSharded returns for every
// Ctx misuse panic. Processor 8 misbehaves; it is the first processor
// of a later cluster at labels 1 and 2 and the first of shard 2 of 4,
// so the test pins which processor a shard task's single recover
// names. At label 1 the four-shard run takes the two-barrier path (a
// cluster spans two shards) and the one-shard run the fused one; at
// label 2 both are fused. Every other processor stores, sends one
// message inside its cluster and works, on the Ctx the shard reuses.
func TestCtxMisuseErrors(t *testing.T) {
	const bad = 8
	cases := []struct {
		name string
		bad  func(c *Ctx)
		want string
	}{
		{"load-low", func(c *Ctx) { c.Load(-1) }, "dbsp: proc 8: Load(-1) outside data region [0,2)"},
		{"load-high", func(c *Ctx) { c.Load(2) }, "dbsp: proc 8: Load(2) outside data region [0,2)"},
		{"store", func(c *Ctx) { c.Store(2, 1) }, "dbsp: proc 8: Store(2) outside data region [0,2)"},
		{"send-invalid", func(c *Ctx) { c.Send(16, 1) }, "dbsp: proc 8: Send to invalid processor 16"},
		{"send-cluster", func(c *Ctx) { c.Send(0, 1) }, "dbsp: proc 8: Send to 0 crosses LABEL-cluster boundary"},
		{"outbox-overflow", func(c *Ctx) { c.Send(bad, 1); c.Send(bad, 2) }, "dbsp: proc 8: outbox overflow (MaxMsgs=1)"},
		{"recv", func(c *Ctx) { c.Recv(0) }, "dbsp: proc 8: Recv(0) with 0 messages"},
		{"negative-work", func(c *Ctx) { c.Work(-3) }, "dbsp: proc 8: negative work -3"},
	}
	for _, label := range []int{1, 2} {
		for _, tc := range cases {
			prog := &Program{
				Name:   "misuse",
				V:      16,
				Layout: Layout{Data: 2, MaxMsgs: 1},
				Steps: []Superstep{{Label: label, Run: func(c *Ctx) {
					if c.ID() == bad {
						tc.bad(c)
						return
					}
					c.Store(0, Word(c.ID()))
					c.Send(c.ID()^1, 1)
					c.Work(2)
				}}},
			}
			want := `dbsp: program "misuse" superstep 0: processor 8: handler panic: ` +
				strings.ReplaceAll(tc.want, "LABEL", strconv.Itoa(label))
			for _, e := range reuseEngines {
				if _, err := e.run(prog); err == nil || err.Error() != want {
					t.Errorf("label %d %s %s: error %v, want %q", label, tc.name, e.name, err, want)
				}
			}
		}
	}
}

// TestEnginePanicNotHandlerError pins that the per-task recover covers
// only handlers. Processor 0's Init keeps its whole context (the data
// region's capacity reaches µ), and processor 1's handler writes a
// negative inbox count into it after processor 0's handler has run,
// then sends to processor 0, so delivery — engine code, in the same
// fused shard task — indexes the inbox out of range. RunSharded must
// panic, not report a handler panic.
func TestEnginePanicNotHandlerError(t *testing.T) {
	l := Layout{Data: 1, MaxMsgs: 1}
	var ctx0 []Word
	prog := &Program{
		Name:   "corrupt",
		V:      4,
		Layout: l,
		Init: func(p int, data []Word) {
			if p == 0 {
				ctx0 = data[:cap(data)]
			}
		},
		Steps: []Superstep{{Label: 0, Run: func(c *Ctx) {
			if c.ID() == 1 {
				ctx0[l.InCountOff()] = -5
				c.Send(0, 1)
			}
		}}},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RunSharded returned normally; want the delivery panic to propagate")
		}
	}()
	_, err := RunSharded(prog, cost.Poly{Alpha: 0.5}, 1)
	t.Fatalf("RunSharded returned error %v; want the delivery panic to propagate", err)
}
