package dbsp

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cost"
)

// StepCost records the native D-BSP cost of one executed superstep:
// τ + h·g(µ·v/2^i) (paper Section 2).
type StepCost struct {
	// Label is the superstep's cluster label i.
	Label int
	// Tau is the maximum local computation time over processors.
	Tau int64
	// H is the degree of the communication h-relation: the maximum
	// over processors of messages sent or received.
	H int
	// Cost is Tau + H·g(µ·v/2^Label).
	Cost float64
}

// Result is the outcome of a native D-BSP run.
type Result struct {
	// Cost is the total D-BSP time T: the sum of superstep costs.
	Cost float64
	// Steps holds the per-superstep breakdown.
	Steps []StepCost
	// Contexts holds the final µ-word context of every processor.
	Contexts [][]Word
	// MaxTau is the maximum single-superstep local computation time, the
	// τ of Theorem 5's statement ("each processor performs local
	// computation for O(τ) time" per superstep).
	MaxTau int64
}

// TotalTau returns Σ_s τ_s, the aggregate local computation term.
func (r *Result) TotalTau() int64 {
	var t int64
	for _, s := range r.Steps {
		t += s.Tau
	}
	return t
}

// CommCost returns Σ_s h_s·g_s, the aggregate communication term.
func (r *Result) CommCost() float64 {
	var c float64
	for _, s := range r.Steps {
		c += s.Cost - float64(s.Tau)
	}
	return c
}

// NewContexts allocates and initialises the contexts of prog: v blocks
// of µ zeroed words with Init applied to each data region, all carved
// from one flat backing slice. Both the native engine and the
// sequential simulators start from this state; the sharded engine uses
// the per-shard variant NewContextsSharded over the same chunked
// allocator, so initial states coincide word for word.
func NewContexts(prog *Program) [][]Word {
	return newContextsChunked(prog, prog.V)
}

// Run executes prog natively on a D-BSP(v, µ, g) machine. Execution
// model: within each superstep the v processor handlers are chunked
// over GOMAXPROCS worker goroutines (contiguous ranges of processor
// ids, not one goroutine per processor), a barrier joins the workers,
// and message delivery happens sequentially at the superstep boundary.
// It returns the final contexts and the exact model cost. For large v,
// RunSharded runs the same semantics over per-shard arenas, cluster by
// cluster where every cluster fits inside a shard.
func Run(prog *Program, g cost.Func) (*Result, error) {
	return runHooked(prog, g, nil)
}

// runStepHooked executes one superstep: handlers in parallel, an
// optional pre-delivery observer, then delivery. verify controls the
// engine-side Transpose declaration check; RunInspected disables it so
// an inspector sees declaration violations instead of an engine error.
func runStepHooked(prog *Program, ctxs [][]Word, st Superstep, collect func(), verify bool, buf *stepBuffers) (StepCost, error) {
	sc := StepCost{Label: st.Label}
	if st.Run == nil {
		return sc, nil // dummy superstep: no computation, no messages
	}
	v := prog.V
	ops, errs := buf.ops, buf.errs
	for p := 0; p < v; p++ {
		ops[p], errs[p] = 0, nil
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > v {
		workers = v
	}
	if workers == 1 {
		// One worker runs inline, like the sharded engine at one shard:
		// no goroutine and no barrier per superstep.
		runRange(prog, ctxs, st, 0, v, ops, errs)
	} else {
		var wg sync.WaitGroup
		chunk := (v + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > v {
				hi = v
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				runRange(prog, ctxs, st, lo, hi, ops, errs)
			}(lo, hi)
		}
		wg.Wait()
	}

	for p, err := range errs {
		if err != nil {
			return sc, fmt.Errorf("processor %d: %w", p, err)
		}
	}
	for _, o := range ops {
		if o > sc.Tau {
			sc.Tau = o
		}
	}
	if verify && st.Transpose != nil {
		if err := verifyTranspose(prog, ctxs, st, 0, v); err != nil {
			return sc, err
		}
	}
	if collect != nil {
		collect()
	}
	h, err := deliverInto(prog.Layout, ctxs, buf.received)
	if err != nil {
		return sc, err
	}
	sc.H = h
	return sc, nil
}

// runRange runs the handlers of processors [lo, hi) on one worker's
// runner, recording each processor's ops and error in its own slot.
func runRange(prog *Program, ctxs [][]Word, st Superstep, lo, hi int, ops []int64, errs []error) {
	r := newProcRunner(prog, st.Label)
	for p := lo; p < hi; p++ {
		r.runProc(ctxs, st, p, &ops[p], &errs[p])
	}
}

// stepBuffers holds the per-superstep scratch slices of one engine run.
// The loop reuses them across supersteps instead of reallocating three
// slices per superstep, which dominated the engine's allocation profile
// on small programs.
type stepBuffers struct {
	ops      []int64
	errs     []error
	received []int
}

func newStepBuffers(v int) *stepBuffers {
	return &stepBuffers{
		ops:      make([]int64, v),
		errs:     make([]error, v),
		received: make([]int, v),
	}
}

// verifyTranspose checks a Superstep.Transpose declaration against the
// outboxes the handlers of processors [lo, hi) actually produced:
// exactly one message per processor, to the declared destination. The
// native engine checks [0, v) at once; the sharded engine checks each
// cluster of a cluster-local step right after its handlers run.
func verifyTranspose(prog *Program, ctxs [][]Word, st Superstep, lo, hi int) error {
	l := prog.Layout
	cs := ClusterSize(prog.V, st.Label)
	tr := st.Transpose
	if tr.M1*tr.M2 != cs {
		return fmt.Errorf("transpose declaration %dx%d does not match cluster size %d", tr.M1, tr.M2, cs)
	}
	for p := lo; p < hi; p++ {
		ctx := ctxs[p]
		if n := int(ctx[l.OutCountOff()]); n != 1 {
			return fmt.Errorf("transpose superstep: processor %d sent %d messages, want 1", p, n)
		}
		base := (p / cs) * cs
		want := base + tr.Dest(p-base)
		if got := int(ctx[l.OutboxOff(0)]); got != want {
			return fmt.Errorf("transpose superstep: processor %d sent to %d, want %d", p, got, want)
		}
	}
	return nil
}

// procRunner is the reusable handler view of one native worker or one
// shard: a store and a Ctx that runProc rebinds to each processor the
// worker runs, so a superstep allocates one runner per worker instead
// of a store and a Ctx per processor. A runner is allocated inside its
// worker's goroutine and never shared: the store's ops counter is
// written on every Load and Put, so runners packed side by side in one
// slice would false-share cache lines across workers.
type procRunner struct {
	store sliceStore
	ctx   Ctx
}

func newProcRunner(prog *Program, label int) *procRunner {
	r := &procRunner{}
	r.ctx = Ctx{st: &r.store, layout: prog.Layout, v: prog.V, label: label}
	return r
}

// runProc executes the handler for processor p on the runner,
// translating model violations (which Ctx reports by panicking) into
// errors.
func (r *procRunner) runProc(ctxs [][]Word, st Superstep, p int, ops *int64, errOut *error) {
	defer func() {
		if r := recover(); r != nil {
			*errOut = fmt.Errorf("handler panic: %v", r)
		}
	}()
	r.store = sliceStore{mem: ctxs[p]}
	r.ctx.id = p
	st.Run(&r.ctx)
	*ops = r.store.ops
}

// Deliver moves every queued outbox message into its destination inbox
// and returns the h-relation degree: max over processors of
// max(sent, received). Inboxes are cleared first, messages are
// delivered in ascending sender order (send order preserved within a
// sender), and outboxes are cleared afterwards — the exact discipline
// the sequential simulators replicate so that final states coincide.
func Deliver(l Layout, ctxs [][]Word) (h int, err error) {
	return deliverInto(l, ctxs, make([]int, len(ctxs)))
}

// deliverInto is Deliver with a caller-owned received-count buffer
// (len(ctxs) entries, contents ignored), so the engine loop can reuse
// one across supersteps.
func deliverInto(l Layout, ctxs [][]Word, received []int) (h int, err error) {
	for _, ctx := range ctxs {
		ctx[l.InCountOff()] = 0
	}
	received = received[:len(ctxs)]
	for i := range received {
		received[i] = 0
	}
	for p, ctx := range ctxs {
		sent := int(ctx[l.OutCountOff()])
		if sent > h {
			h = sent
		}
		for k := 0; k < sent; k++ {
			dest := int(ctx[l.OutboxOff(k)])
			payload := ctx[l.OutboxOff(k)+1]
			dctx := ctxs[dest]
			n := int(dctx[l.InCountOff()])
			if n >= l.MaxMsgs {
				return 0, fmt.Errorf("inbox overflow at processor %d (MaxMsgs=%d)", dest, l.MaxMsgs)
			}
			dctx[l.InboxOff(n)] = Word(p)
			dctx[l.InboxOff(n)+1] = payload
			dctx[l.InCountOff()] = Word(n + 1)
			received[dest]++
		}
		ctx[l.OutCountOff()] = 0
	}
	for _, r := range received {
		if r > h {
			h = r
		}
	}
	return h, nil
}
