package lint

// DetFlow is the repo's one determinism analyzer (DESIGN §12). It
// enforces a single rule: no nondeterminism source may reach an
// escaping position. A taint fact is born at a wall-clock read, a
// global math/rand draw, a map range, or a multi-case select, and is
// propagated through assignments, expressions, and module call
// summaries (parameter→result and parameter→sink flow, results
// carrying callee-internal sources). The escaping positions are
// printed or byte-stream output (the JSONL records golden files pin),
// (*dbsp.Ctx).Send, error strings, float64 cost accumulations, and the
// results of exported functions. Writing output or sending inside a
// map range, directly or through a helper that does, is flagged
// whatever the values, since the records land in iteration order.
//
// Sanctioned laundering is recognized: sorting a collected key slice
// kills its order taint (the collect-then-sort idiom), seeded
// rand.New(rand.NewSource(...)) generators are never tainted in the
// first place (only the global convenience functions are sources),
// and a //lint:ignore detflow directive on a *source* line suppresses
// every finding that source would induce, in the function and in its
// callers — which is how a callee certifies "this clock read never
// reaches output" once, instead of each caller annotating its sink. A
// source whose value reaches no escaping position (a clock read that
// only steers a backoff) is silent.
var DetFlow = &Analyzer{
	Name:  "detflow",
	Doc:   "no nondeterminism source (clock, global rand, map/select order) may reach sweep output, dbsp sends, error strings, charged costs, or exported results",
	Layer: LayerInterproc,
	Run:   runDetFlow,
}

// runDetFlow replays the findings the shared bottom-up pass computed
// for this package. The heavy lifting happens once per lint.Run in
// Pass.Interproc; each per-package Run is a lookup.
func runDetFlow(pass *Pass) {
	if pass.Pkg.Info == nil {
		return
	}
	for _, f := range pass.Interproc().det[pass.Pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}
