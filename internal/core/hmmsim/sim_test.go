package hmmsim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/dbsp"
)

// rotateHandler returns a handler that consumes the inbox into data
// word 0, then sends the value to the next processor (cyclically)
// within its label-level cluster. The communication pattern is fixed by
// the construction-time label, NOT by c.Label(): smoothing may coarsen
// the runtime label, which must not change what the program computes.
func rotateHandler(label int) func(c *dbsp.Ctx) {
	return func(c *dbsp.Ctx) {
		acc := c.Load(0)
		for k := 0; k < c.NumRecv(); k++ {
			src, payload := c.Recv(k)
			acc += payload + dbsp.Word(src%3)
		}
		c.Store(0, acc)
		cs := dbsp.ClusterSize(c.V(), label)
		lo, _ := dbsp.ClusterRange(c.V(), label, dbsp.ClusterIndex(c.V(), label, c.ID()))
		c.Send(lo+((c.ID()-lo)+1)%cs, acc)
	}
}

// rotateProg builds a program with the given label sequence, each step
// running rotateHandler, ending with a global consume-only step.
func rotateProg(v int, labels ...int) *dbsp.Program {
	steps := make([]dbsp.Superstep, 0, len(labels)+1)
	for _, l := range labels {
		steps = append(steps, dbsp.Superstep{Label: l, Run: rotateHandler(l)})
	}
	steps = append(steps, dbsp.Superstep{Label: 0, Run: func(c *dbsp.Ctx) {
		acc := c.Load(0)
		for k := 0; k < c.NumRecv(); k++ {
			_, payload := c.Recv(k)
			acc += payload
		}
		c.Store(0, acc)
	}})
	return &dbsp.Program{
		Name:   "rotate",
		V:      v,
		Layout: dbsp.Layout{Data: 2, MaxMsgs: 2},
		Init:   func(p int, data []dbsp.Word) { data[0] = dbsp.Word(7*p + 1) },
		Steps:  steps,
	}
}

// descendingLabels returns log v, log v -1, ..., 0.
func descendingLabels(v int) []int {
	logv := dbsp.Log2(v)
	out := make([]int, 0, logv+1)
	for l := logv; l >= 0; l-- {
		out = append(out, l)
	}
	return out
}

// assertSameContexts fails the test unless the simulated contexts match
// a native run bit for bit.
func assertSameContexts(t *testing.T, prog *dbsp.Program, got [][]Word) {
	t.Helper()
	native, err := dbsp.Run(prog, cost.Const{C: 1})
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	for p := range native.Contexts {
		if !reflect.DeepEqual(native.Contexts[p], got[p]) {
			t.Fatalf("proc %d diverged:\nnative %v\nsim    %v", p, native.Contexts[p], got[p])
		}
	}
}

func TestSimulateMatchesNativeDescending(t *testing.T) {
	prog := rotateProg(16, descendingLabels(16)...)
	res, err := Simulate(prog, cost.Poly{Alpha: 0.5}, &Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameContexts(t, prog, res.Contexts)
}

func TestSimulateMatchesNativeMixedLabels(t *testing.T) {
	// Refinements, plateaus and multi-level coarsenings, ending global.
	for _, labels := range [][]int{
		{0, 2, 1, 0, 3, 0},
		{4, 4, 4, 0},
		{2, 3, 3, 1, 2, 0},
		{0, 0, 0},
		{4, 0, 4, 0},
	} {
		prog := rotateProg(16, labels...)
		for _, f := range []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}, cost.Const{C: 1}} {
			res, err := Simulate(prog, f, &Options{CheckInvariants: true})
			if err != nil {
				t.Fatalf("labels %v f=%s: %v", labels, f.Name(), err)
			}
			assertSameContexts(t, prog, res.Contexts)
		}
	}
}

func TestSimulateSingleProcessor(t *testing.T) {
	prog := rotateProg(1) // just the final global step
	res, err := Simulate(prog, cost.Log{}, &Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameContexts(t, prog, res.Contexts)
}

func TestNaiveMatchesNative(t *testing.T) {
	prog := rotateProg(16, 2, 3, 1, 0, 4, 0)
	res, err := SimulateNaive(prog, cost.Poly{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameContexts(t, prog, res.Contexts)
}

func TestSimulateRejectsBadInput(t *testing.T) {
	good := rotateProg(8, 1, 0)
	if _, err := Simulate(good, nil, nil); err == nil {
		t.Error("nil access function accepted")
	}
	empty := &dbsp.Program{Name: "empty", V: 8, Layout: dbsp.Layout{Data: 1}}
	if _, err := Simulate(empty, cost.Log{}, nil); err == nil {
		t.Error("empty program accepted")
	}
	nonGlobal := rotateProg(8, 1, 0)
	nonGlobal.Steps = nonGlobal.Steps[:1] // ends at label 1
	if _, err := Simulate(nonGlobal, cost.Log{}, nil); err == nil {
		t.Error("program without global end accepted")
	}
	bad := &dbsp.Program{Name: "bad", V: 8, Layout: dbsp.Layout{Data: 1},
		Steps: []dbsp.Superstep{{Label: 9, Run: func(c *dbsp.Ctx) {}}}}
	if _, err := Simulate(bad, cost.Log{}, nil); err == nil {
		t.Error("invalid label accepted")
	}
}

func TestDisableSmoothing(t *testing.T) {
	// Smooth program: works.
	prog := rotateProg(16, 2, 1, 0)
	res, err := Simulate(prog, cost.Log{}, &Options{DisableSmoothing: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameContexts(t, prog, res.Contexts)
	if res.SmoothedSteps != len(prog.Steps) {
		t.Errorf("smoothing disabled but step count changed: %d != %d", res.SmoothedSteps, len(prog.Steps))
	}
	// Non-smooth program (4 -> 0 jump over used label 2): rejected.
	jump := rotateProg(16, 4, 2, 4, 0)
	if _, err := Simulate(jump, cost.Log{}, &Options{DisableSmoothing: true}); err == nil {
		t.Error("non-smooth program accepted with smoothing disabled")
	}
}

func TestSmoothingAddsDummies(t *testing.T) {
	prog := rotateProg(16, 4, 0) // big drop: needs intermediate dummies
	res, err := Simulate(prog, cost.Poly{Alpha: 0.5}, &Options{Labels: []int{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.SmoothedSteps <= len(prog.Steps) {
		t.Errorf("expected dummy supersteps, got %d steps for %d input", res.SmoothedSteps, len(prog.Steps))
	}
	assertSameContexts(t, prog, res.Contexts)
}

func TestRoundsAndSwapsCounting(t *testing.T) {
	v := 8
	prog := rotateProg(v, 3, 0) // with L={0..3}: clusters cycle at every level
	res, err := Simulate(prog, cost.Log{}, &Options{Labels: []int{0, 1, 2, 3}, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= int64(len(prog.Steps)) {
		t.Errorf("rounds = %d, want more than %d (per-cluster rounds)", res.Rounds, len(prog.Steps))
	}
	if res.Swaps == 0 {
		t.Error("expected cluster swaps for a coarsening program")
	}
}

// Theorem 5: host cost is O(v·(τ + µ·Σ λ_i f(µ v/2^i))). The ratio of
// measured to predicted must stay within constant factors across v.
func TestTheorem5Shape(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	var lo, hi = math.Inf(1), 0.0
	for _, v := range []int{16, 64, 256} {
		prog := rotateProg(v, descendingLabels(v)...)
		res, err := Simulate(prog, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		native, err := dbsp.Run(prog, cost.Const{C: 1})
		if err != nil {
			t.Fatal(err)
		}
		mu := int64(prog.Mu())
		lam := prog.Lambda(true)
		pred := float64(native.TotalTau())
		for i, li := range lam {
			pred += float64(mu) * float64(li) * f.Cost(mu*int64(v>>uint(i)))
		}
		pred *= float64(v)
		ratio := res.HostCost / pred
		if ratio < lo {
			lo = ratio
		}
		if ratio > hi {
			hi = ratio
		}
	}
	if lo <= 0 || hi/lo > 8 {
		t.Errorf("Theorem 5 ratio drifts across v: lo=%g hi=%g", lo, hi)
	}
}

// Corollary 6: with g = f, slowdown over the native D-BSP time is Θ(v).
func TestCorollary6LinearSlowdown(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	var lo, hi = math.Inf(1), 0.0
	for _, v := range []int{16, 64, 256} {
		prog := rotateProg(v, descendingLabels(v)...)
		res, err := Simulate(prog, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		native, err := dbsp.Run(prog, f) // g = f
		if err != nil {
			t.Fatal(err)
		}
		perProc := res.HostCost / native.Cost / float64(v)
		if perProc < lo {
			lo = perProc
		}
		if perProc > hi {
			hi = perProc
		}
	}
	if lo <= 0 || hi/lo > 8 {
		t.Errorf("Corollary 6: slowdown/v drifts: lo=%g hi=%g", lo, hi)
	}
}

// E04: the naive baseline pays f(µv) on every superstep; the scheduled
// simulation must beat it by an unbounded factor as v grows for
// fine-label-heavy programs.
func TestScheduledBeatsNaive(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	prevGain := 0.0
	for _, v := range []int{64, 256, 1024} {
		// Many fine supersteps (label log v -1), one global end.
		labels := make([]int, 12)
		for i := range labels {
			labels[i] = dbsp.Log2(v) - 1
		}
		prog := rotateProg(v, labels...)
		sched, err := Simulate(prog, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := SimulateNaive(prog, f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sched.Contexts, naive.Contexts) {
			t.Fatal("scheduled and naive simulations disagree on final state")
		}
		gain := naive.HostCost / sched.HostCost
		if gain <= 1 {
			t.Errorf("v=%d: naive (%g) not worse than scheduled (%g)", v, naive.HostCost, sched.HostCost)
		}
		if gain < prevGain {
			t.Errorf("v=%d: naive/scheduled gain %g decreased from %g; want growing", v, gain, prevGain)
		}
		prevGain = gain
	}
}

func TestResultFields(t *testing.T) {
	prog := rotateProg(8, 2, 0)
	res, err := Simulate(prog, cost.Log{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine == nil || res.HostCost <= 0 || res.Stats.Accesses() == 0 {
		t.Errorf("Result incomplete: %+v", res)
	}
	if len(res.Labels) == 0 || res.Labels[0] != 0 {
		t.Errorf("Labels = %v, want set starting at 0", res.Labels)
	}
	if math.Abs(res.HostCost-res.Machine.Cost()) > 1e-9 {
		t.Error("HostCost != Machine.Cost()")
	}
}

// TestNaivePanicNamesProcessor pins the re-panic text of the naive
// baseline, whose handler loop sets up one recover per superstep: a
// handler panic at processor 5 of superstep 1 is re-raised naming that
// superstep and processor, not the loop's first or last.
func TestNaivePanicNamesProcessor(t *testing.T) {
	prog := &dbsp.Program{
		Name:   "naive-panic",
		V:      8,
		Layout: dbsp.Layout{Data: 1, MaxMsgs: 1},
		Steps: []dbsp.Superstep{
			{Label: 0, Run: func(c *dbsp.Ctx) { c.Store(0, 1) }},
			{Label: 0, Run: func(c *dbsp.Ctx) {
				if c.ID() == 5 {
					panic("boom")
				}
			}},
		},
	}
	const want = "hmmsim: naive: superstep 1 proc 5: boom"
	defer func() {
		if r := recover(); r != want {
			t.Errorf("SimulateNaive panicked with %v, want %q", r, want)
		}
	}()
	SimulateNaive(prog, cost.Poly{Alpha: 0.5})
}
