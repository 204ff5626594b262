package experiments

import (
	"fmt"

	"repro/internal/core/hmmsim"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
	"repro/internal/smooth"
	"repro/internal/sweep"
	"repro/internal/theory"
)

// E03HMMSlowdown validates Theorem 5 / Corollary 6: simulating a
// fine-grained D-BSP(v, µ, f) program on an f(x)-HMM costs Θ(T·v) — a
// slowdown merely linear in the loss of parallelism — and matches the
// Theorem 5 formula v·(τ + µ·Σ λ_i·f(µv/2^i)).
func E03HMMSlowdown(p sweep.Params) *Table {
	vs := []int{16, 64, 256, 1024}
	if p.Quick {
		vs = vs[:2]
	}
	t := &Table{
		ID:    "E03",
		Title: "D-BSP -> HMM simulation slowdown (Theorem 5, Corollary 6)",
		Claim: "with g = f the simulation runs in Θ(T·v): slowdown linear in the " +
			"loss of parallelism, no extra hierarchy-induced cost",
		Columns: []string{"f", "v", "T (native, g=f)", "sim cost", "cost/(T·v)", "cost/Thm5"},
		Notes: "Shape holds when both ratio columns are flat across v: the measured " +
			"slowdown is c·v for a constant c, and the Theorem 5 formula predicts it.",
	}
	for _, f := range []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}} {
		for _, v := range vs {
			prog := progtest.Rotate(v, progtest.Descending(v)...)
			native, err := dbsp.Run(prog, f)
			must(err)
			res, err := hmmsim.Simulate(prog, f, hmmOpts(p))
			must(err)
			flat, err := dbsp.Run(prog, cost.Const{C: 1})
			must(err)
			pred := theory.HMMSimulation(f, v, prog.Mu(), float64(flat.TotalTau()), prog.Lambda(true))
			t.Rows = append(t.Rows, []string{
				f.Name(), fmt.Sprint(v), g(native.Cost), g(res.HostCost),
				r(res.HostCost / (native.Cost * float64(v))), r(res.HostCost / pred)})
		}
	}
	return t
}

// E04NaiveVsScheduled is the scheduling ablation: the Figure 1
// depth-first cluster schedule versus the superstep-at-a-time baseline,
// which pays f(µ·v) per superstep regardless of label (time ω(v) per
// superstep for unbounded f).
func E04NaiveVsScheduled(p sweep.Params) *Table {
	vs := []int{64, 256, 1024}
	if p.Quick {
		vs = vs[:2]
	}
	t := &Table{
		ID:    "E04",
		Title: "Figure 1 scheduling vs step-by-step baseline (HMM)",
		Claim: "a straightforward step-by-step simulation pays ω(v) per superstep " +
			"just to touch the contexts; the cluster schedule does not",
		Columns: []string{"f", "v", "scheduled", "naive", "naive/scheduled"},
		Notes:   "Shape holds when the gain column grows with v (the baseline's extra factor is unbounded).",
	}
	f := cost.Poly{Alpha: 0.5}
	for _, v := range vs {
		prog := progtest.Rotate(v, progtest.Fine(v, 12)...)
		sched, err := hmmsim.Simulate(prog, f, hmmOpts(p))
		must(err)
		naive, err := hmmsim.SimulateNaive(prog, f)
		must(err)
		t.Rows = append(t.Rows, []string{
			f.Name(), fmt.Sprint(v), g(sched.HostCost), g(naive.HostCost),
			r(naive.HostCost / sched.HostCost)})
	}
	return t
}

// E14SmoothingAblation compares the default Theorem 5 label set against
// the identity label set (dummies only, no label bundling) and, where
// legal, no smoothing at all.
func E14SmoothingAblation(p sweep.Params) *Table {
	vs := []int{64, 256}
	if p.Quick {
		vs = vs[:1]
	}
	t := &Table{
		ID:    "E14",
		Title: "L-smoothing ablation (Definition 3)",
		Claim: "smoothing with the Theorem 5 label set adds only a constant factor " +
			"while enabling the cluster schedule's amortisation",
		Columns: []string{"program/f", "v", "thm5 labels", "identity labels", "unsmoothed", "thm5/baseline"},
		Notes: "For the descending program the baseline is the unsmoothed run; for " +
			"the sawtooth program (not smooth as written) the baseline is the " +
			"identity label set. The Theorem 5 set must stay within a small " +
			"constant of the baseline in both cases.",
	}
	f := cost.Poly{Alpha: 0.5}
	for _, v := range vs {
		// Descending labels: already smooth, so the unsmoothed column is
		// legal and the identity set adds no dummies.
		prog := progtest.Rotate(v, progtest.Descending(v)...)
		def, err := hmmsim.Simulate(prog, f, hmmOpts(p))
		must(err)
		ident, err := hmmsim.Simulate(prog, f, &hmmsim.Options{Labels: smooth.Identity(dbsp.Log2(v)), Obs: p.Obs})
		must(err)
		raw, err := hmmsim.Simulate(prog, f, &hmmsim.Options{DisableSmoothing: true, Obs: p.Obs})
		must(err)
		t.Rows = append(t.Rows, []string{
			"descending/" + f.Name(), fmt.Sprint(v), g(def.HostCost), g(ident.HostCost), g(raw.HostCost),
			r(def.HostCost / raw.HostCost)})
		// Sawtooth labels: repeated fine->global jumps, where dummies are
		// mandatory (the raw program is not smooth, so it cannot run
		// unsmoothed) and the Theorem 5 bundling pays off most.
		logv := dbsp.Log2(v)
		saw := progtest.Rotate(v, logv-1, 0, logv-1, 0, logv-1, 0)
		defS, err := hmmsim.Simulate(saw, f, hmmOpts(p))
		must(err)
		identS, err := hmmsim.Simulate(saw, f, &hmmsim.Options{Labels: smooth.Identity(logv), Obs: p.Obs})
		must(err)
		t.Rows = append(t.Rows, []string{
			"sawtooth/" + f.Name(), fmt.Sprint(v), g(defS.HostCost), g(identS.HostCost), "n/a",
			r(defS.HostCost / identS.HostCost)})
	}
	return t
}

// E19LabelSlack audits the case-study algorithms with the message
// tracer: slack is the average difference between the finest common
// cluster of a message's endpoints and the superstep label it was sent
// under. Zero slack means the program's labels expose every bit of
// submachine locality its traffic admits — the property that makes the
// Theorem 5/12 simulations optimal for these algorithms.
func E19LabelSlack(p sweep.Params) *Table {
	v := 256
	if p.Quick {
		v = 64
	}
	t := &Table{
		ID:    "E19",
		Title: "Label slack of the case-study algorithms",
		Claim: "the Propositions 7-9 schedules declare their supersteps at exactly " +
			"the granularity their communication requires",
		Columns: []string{"program", "messages", "slack (levels)"},
		Notes: "Slack 0 = every message is sent at the finest legal label. " +
			"Transpose-like patterns carry inherent sub-level slack (fixed " +
			"points and near-diagonal pairs land in finer clusters than the " +
			"pattern as a whole requires), so values well below one level are " +
			"tight; the deliberately sloppy variant shows what the tracer flags.",
	}
	side := 1 << uint(dbsp.Log2(v)/2)
	progs := []*dbsp.Program{
		algosMatMul(p, v, side),
		algosDFTButterfly(p, v),
		algosDFTRecursive(p, v),
		algosSort(p, v),
	}
	for _, prog := range progs {
		_, tr, err := dbsp.RunTraced(prog, cost.Const{C: 1}, dbsp.Options{})
		must(err)
		t.Rows = append(t.Rows, []string{
			prog.Name, fmt.Sprint(tr.Messages()), fmt.Sprintf("%.3f", tr.Slack())})
	}
	// The sloppy contrast: neighbour exchanges declared globally.
	sloppy := &dbsp.Program{
		Name: "sloppy-neighbour", V: v, Layout: dbsp.Layout{Data: 1, MaxMsgs: 1},
		Steps: []dbsp.Superstep{
			{Label: 0, Run: func(c *dbsp.Ctx) { c.Send(c.ID()^1, 1) }},
			{Label: 0, Run: func(c *dbsp.Ctx) {}},
		},
	}
	_, tr, err := dbsp.RunTraced(sloppy, cost.Const{C: 1}, dbsp.Options{})
	must(err)
	t.Rows = append(t.Rows, []string{
		sloppy.Name, fmt.Sprint(tr.Messages()), fmt.Sprintf("%.3f", tr.Slack())})
	return t
}
