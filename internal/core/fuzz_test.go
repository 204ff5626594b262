package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
)

// requireAgrees asserts a run reproduced the one-shard reference bit
// for bit: the same error text, or else contexts word by word, per-step
// labels, τ and h-relations, and every charged float64 compared by
// Float64bits.
func requireAgrees(t *testing.T, name string, ref *dbsp.Result, refErr error, got *dbsp.Result, err error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: error %v, one shard %v", name, err, refErr)
	}
	if refErr != nil {
		return
	}
	if len(ref.Steps) != len(got.Steps) {
		t.Fatalf("%s: step counts %d vs %d", name, len(ref.Steps), len(got.Steps))
	}
	for i := range ref.Steps {
		r, g := ref.Steps[i], got.Steps[i]
		if r.Label != g.Label || r.Tau != g.Tau || r.H != g.H ||
			math.Float64bits(r.Cost) != math.Float64bits(g.Cost) {
			t.Fatalf("%s step %d: one shard %+v, got %+v", name, i, r, g)
		}
	}
	if math.Float64bits(ref.Cost) != math.Float64bits(got.Cost) || ref.MaxTau != got.MaxTau {
		t.Fatalf("%s: total cost/MaxTau diverged: one shard (%x, %d), got (%x, %d)",
			name, math.Float64bits(ref.Cost), ref.MaxTau,
			math.Float64bits(got.Cost), got.MaxTau)
	}
	for p := range ref.Contexts {
		if !slices.Equal(ref.Contexts[p], got.Contexts[p]) {
			t.Fatalf("%s: diverged from one shard at proc %d", name, p)
		}
	}
}

// oneShardOracle runs prog at one shard, where every superstep runs
// fused inside the shard and every reduction is trivial, and requires
// RunSharded at shards and RunTraced at shards, whose trace hook takes
// the two-phase exchange on every superstep, to reproduce it bit for
// bit. It returns the reference.
func oneShardOracle(t *testing.T, prog *dbsp.Program, f cost.Func, shards int) *dbsp.Result {
	t.Helper()
	ref, refErr := dbsp.RunSharded(prog, f, 1)
	sh, err := dbsp.RunSharded(prog, f, shards)
	requireAgrees(t, fmt.Sprintf("%s shards=%d", prog.Name, shards), ref, refErr, sh, err)
	tr, _, err := dbsp.RunTraced(prog, f, dbsp.Options{Shards: shards})
	requireAgrees(t, fmt.Sprintf("%s traced shards=%d", prog.Name, shards), ref, refErr, tr, err)
	if refErr != nil {
		t.Fatalf("%s one shard: %v", prog.Name, refErr)
	}
	return ref
}

// requireSimsAgree asserts the three simulators reproduced the
// engine's final contexts.
func requireSimsAgree(t *testing.T, prog *dbsp.Program, f cost.Func, vp int, ref *dbsp.Result) {
	t.Helper()
	h, err := OnHMM(prog, f)
	if err != nil {
		t.Fatalf("%s hmm(%s): %v", prog.Name, f.Name(), err)
	}
	b, err := OnBT(prog, f)
	if err != nil {
		t.Fatalf("%s bt(%s): %v", prog.Name, f.Name(), err)
	}
	s, err := OnDBSP(prog, f, vp)
	if err != nil {
		t.Fatalf("%s selfsim(v'=%d): %v", prog.Name, vp, err)
	}
	for p := range ref.Contexts {
		if !slices.Equal(ref.Contexts[p], h.Contexts[p]) {
			t.Fatalf("%s f=%s: HMM diverged at proc %d", prog.Name, f.Name(), p)
		}
		if !slices.Equal(ref.Contexts[p], b.Contexts[p]) {
			t.Fatalf("%s f=%s: BT diverged at proc %d", prog.Name, f.Name(), p)
		}
		if !slices.Equal(ref.Contexts[p], s.Contexts[p]) {
			t.Fatalf("%s f=%s v'=%d: selfsim diverged at proc %d", prog.Name, f.Name(), vp, p)
		}
	}
}

// The randomized equivalence sweep: pseudo-random programs with
// arbitrary label structures and bounded-fan-in random communication
// must produce bit-identical results at one shard, at another shard
// count and traced at that count, and bit-identical final contexts on
// all three simulators, across machine sizes, step counts, shard counts
// and access functions.
func TestRandomProgramEquivalence(t *testing.T) {
	funcs := []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}}
	var cases int
	for _, v := range []int{4, 16, 32} {
		for _, steps := range []int{1, 4, 9} {
			for seed := uint64(1); seed <= 4; seed++ {
				prog := progtest.RandomProgram(progtest.RandomSpec{
					V: v, Steps: steps, MaxMsgs: 1, Seed: seed,
				})
				f := funcs[cases%len(funcs)]
				cases++
				shards := []int{2, 3, v, v + 7, 0}[cases%5]
				ref := oneShardOracle(t, prog, cost.Const{C: 1}, shards)
				vp := 1 << uint(cases%(dbsp.Log2(v)+1))
				requireSimsAgree(t, prog, f, vp, ref)
			}
		}
	}
	if cases < 30 {
		t.Fatalf("only %d fuzz cases ran", cases)
	}
}

// FuzzEnginesAgree is the differential fuzz target: the fuzzer's bytes
// pick a machine size, step count, message bound, generator seed,
// access function, self-simulation target size and shard count. The
// reference is the engine at one shard, where every superstep runs
// fused and every reduction is trivial. The derived random program must
// then reproduce it bit for bit — contexts, τ, h, every charged float64
// and error text — under RunSharded at the fuzzed shard count, which
// fuses cluster-local supersteps, and under RunTraced at that count,
// whose trace hook takes the two-phase exchange on every superstep.
// The three simulators, independent implementations of the same
// semantics, must reproduce the final contexts (they charge their own
// simulation costs, so only contexts are compared). shardsRaw exercises
// shards=1, shards>v and the GOMAXPROCS default (0). Any divergence —
// in memory contents, in a charged float64, or in which path rejects
// the program — is a bug in an engine's delivery, accumulation or
// layout translation.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(1), uint64(1), uint8(0), uint8(1), uint8(1))
	f.Add(uint8(5), uint8(9), uint8(2), uint64(42), uint8(1), uint8(5), uint8(7))
	f.Add(uint8(0), uint8(0), uint8(3), uint64(7), uint8(2), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(6), uint8(1), uint64(1<<40), uint8(1), uint8(2), uint8(39))
	f.Fuzz(func(t *testing.T, vRaw, stepsRaw, msgsRaw uint8, seed uint64, fRaw, vpRaw, shardsRaw uint8) {
		v := 1 << (vRaw % 6) // 1..32 processors
		steps := int(stepsRaw % 10)
		maxMsgs := 1 + int(msgsRaw%3)
		prog := progtest.RandomProgram(progtest.RandomSpec{
			V: v, Steps: steps, MaxMsgs: maxMsgs, Seed: seed,
		})
		af := []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}, cost.Const{C: 2}}[fRaw%3]
		shards := int(shardsRaw % 40) // 0 = engine default; covers 1 and shards > v
		ref := oneShardOracle(t, prog, af, shards)
		vp := 1 << (int(vpRaw) % (dbsp.Log2(v) + 1))
		requireSimsAgree(t, prog, af, vp, ref)
	})
}

// Determinism of the generator itself: same spec, same program
// behaviour.
func TestRandomProgramDeterministic(t *testing.T) {
	spec := progtest.RandomSpec{V: 16, Steps: 5, MaxMsgs: 1, Seed: 9}
	a, err := dbsp.Run(progtest.RandomProgram(spec), cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dbsp.Run(progtest.RandomProgram(spec), cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Contexts, b.Contexts) {
		t.Fatal("RandomProgram not deterministic")
	}
}
