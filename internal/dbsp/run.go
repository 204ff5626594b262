package dbsp

import (
	"fmt"

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

// Result is the outcome of a D-BSP run.
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
// from one flat backing slice. The sequential simulators start from
// this state; the engine carves the same contexts from per-shard
// arenas over the same chunked allocator, so initial states coincide
// word for word.
func NewContexts(prog *Program) [][]Word {
	return newContextsChunked(prog, prog.V)
}

// Run executes prog on a D-BSP(v, µ, g) machine at the default shard
// count (GOMAXPROCS) and returns the final contexts and the exact model
// cost. It is RunSharded(prog, g, 0).
func Run(prog *Program, g cost.Func) (*Result, error) {
	return RunSharded(prog, g, 0)
}

// RunSharded executes prog with the v processor contexts multiplexed
// over the given number of shards (<= 0 selects GOMAXPROCS; counts
// above v clamp to v). The result — final contexts, per-step costs,
// total cost, error text — is bit-identical at every shard count; only
// the execution strategy differs.
func RunSharded(prog *Program, g cost.Func, shards int) (*Result, error) {
	return engineLoop(prog, g, shards, nil, nil)
}

// engineLoop validates prog, builds the engine and runs every
// superstep: pre receives each executed superstep's outbox snapshot
// before delivery, post receives the contexts right after delivery
// (inboxes still hold the delivered messages). The engine-side
// Transpose verification is skipped when post is set — an inspector
// that wants to observe a corrupted route end-to-end validates
// declarations itself. The engine is built only after the program
// validates, so Init never runs for a rejected program. The cost fold
// is shard-independent: each step's Tau and H produce sc.Cost in step
// order, so runs that agree on the integers agree on every charged
// float64 bit for bit.
func engineLoop(prog *Program, g cost.Func, shards int,
	pre func(step, label int, msgs []MessageTrace),
	post func(step int, st Superstep, ctxs [][]Word)) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("dbsp: nil bandwidth function")
	}
	e := newShardEngine(prog, shards)
	ctxs := e.ctxs
	res := &Result{Contexts: ctxs}
	for s, st := range prog.Steps {
		var collect func()
		if pre != nil && st.Run != nil {
			step, label := s, st.Label
			collect = func() {
				pre(step, label, collectOutboxes(prog.Layout, ctxs))
			}
		}
		sc, err := e.runStep(st, collect, post == nil)
		if err != nil {
			return nil, fmt.Errorf("dbsp: program %q superstep %d: %w", prog.Name, s, err)
		}
		if post != nil && st.Run != nil {
			post(s, st, ctxs)
		}
		sc.Cost = float64(sc.Tau) + float64(sc.H)*CommCost(g, prog.Mu(), prog.V, st.Label)
		res.Steps = append(res.Steps, sc)
		res.Cost += sc.Cost
		if sc.Tau > res.MaxTau {
			res.MaxTau = sc.Tau
		}
	}
	return res, nil
}

// verifyTranspose checks a Superstep.Transpose declaration against the
// outboxes the handlers of processors [lo, hi) actually produced:
// exactly one message per processor, to the declared destination. A
// fused cluster-local step checks each cluster right after its handlers
// run; any other step checks [0, v) at once.
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
