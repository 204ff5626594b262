package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
	"repro/internal/sweep"
)

// E20BigV is the sharded-engine scale demonstration: the engine the
// ROADMAP's "millions of processors" item asks for. It runs a rotate
// program at v up to 2^20 under dbsp.RunSharded with fixed shard
// counts (never GOMAXPROCS — cells must not depend on the host), and
// on the smaller v range it also runs the default dbsp.Run (GOMAXPROCS
// shards) and checks every charged float64 and every context word of
// each fixed-count run against it for bit-identity; that is what the
// byte-gated "vs native" column reports. Shard counts are a pure
// execution detail, so the cost column is constant down each v block —
// that invariance is the experiment's claim.
//
// The builder deliberately uses the un-traced RunSharded: a traced run
// materialises every routed message, which at v = 2^20 is tens of
// millions of MessageTrace records per superstep sweep.
func E20BigV(p sweep.Params) *Table {
	vs := []int{1 << 14, 1 << 17, 1 << 20}
	nativeCap := 1 << 17 // range compared against the default Run; above it, fixed counts only
	if p.Quick {
		vs = []int{1 << 10, 1 << 14}
		nativeCap = 1 << 14
	}
	shardCounts := []int{1, 8, 64}
	t := &Table{
		ID:    "E20",
		Title: "Sharded engine at big v (2^20 processors)",
		Claim: "a D-BSP(v, µ, g) computation with submachine locality can be " +
			"executed by far fewer physical processors than v; the sharded " +
			"engine multiplexes v contexts over a handful of shards with " +
			"bit-identical charged costs",
		Columns: []string{"v", "shards", "supersteps", "T (total cost)", "max h", "vs native"},
		Notes: "Shape holds when the cost column is constant within each v " +
			"block (shard count is an execution detail, not a model " +
			"parameter) and every native-range row reads `identical` — " +
			"contexts, per-step costs and totals compared bit for bit.",
	}
	f := cost.Poly{Alpha: 0.5}
	for _, v := range vs {
		logv := dbsp.Log2(v)
		labels := []int{logv - 1, logv / 2, 0}
		var native *dbsp.Result
		if v <= nativeCap {
			res, err := dbsp.Run(progtest.Rotate(v, labels...), f)
			must(err)
			native = res
		}
		for _, shards := range shardCounts {
			res, err := dbsp.RunSharded(progtest.Rotate(v, labels...), f, shards)
			must(err)
			maxH := 0
			for _, sc := range res.Steps {
				maxH = max(maxH, sc.H)
			}
			vsNative := "-"
			if native != nil {
				vsNative = "identical"
				if math.Float64bits(native.Cost) != math.Float64bits(res.Cost) ||
					len(native.Steps) != len(res.Steps) {
					vsNative = "DIVERGED"
				} else {
					for i := range native.Steps {
						if native.Steps[i].Tau != res.Steps[i].Tau ||
							native.Steps[i].H != res.Steps[i].H ||
							math.Float64bits(native.Steps[i].Cost) != math.Float64bits(res.Steps[i].Cost) {
							vsNative = "DIVERGED"
							break
						}
					}
				}
				if vsNative == "identical" && !slices.EqualFunc(native.Contexts, res.Contexts, slices.Equal[[]dbsp.Word]) {
					vsNative = "DIVERGED"
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("2^%d", logv), fmt.Sprint(shards),
				fmt.Sprint(len(res.Steps)), g(res.Cost), fmt.Sprint(maxH), vsNative,
			})
		}
	}
	return t
}
