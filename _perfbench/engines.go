package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
	"repro/internal/workload"
)

// progSpec is one generated engines program: everything needed to
// rebuild it, so the generated list can be compared as bytes.
type progSpec struct {
	Kind   string `json:"kind"`  // rotate, random, compute, matmul, sort, dft
	Class  string `json:"class"` // small: contexts fit L2; big: beyond it
	V      int    `json:"v"`
	Labels []int  `json:"labels,omitempty"`
	Steps  int    `json:"steps,omitempty"`
	Work   int64  `json:"work,omitempty"`
	Seed   uint64 `json:"seed"`
	// Sims runs the three simulators too; the v = 2^20 program runs on
	// the dbsp paths only (btsim alone would take tens of seconds).
	Sims bool `json:"sims"`
}

const (
	smallLogV = 10 // 2^10 processors: L2-resident contexts
	midLogV   = 14 // 2^14: the largest program every path runs
	bigLogV   = 20 // 2^20: ~100 MB of contexts
)

// engineSpecs is the engines workload generator: a pure function of
// seed. The seed draws the inputs, the random programs' communication
// and the order of each program's labels; the label multisets and
// sizes are fixed, so the work per pass, and with it the timing, does
// not swing from seed to seed.
func engineSpecs(seed uint64) []progSpec {
	g := workload.New(seed)
	order := func(labels ...int) []int {
		out := make([]int, len(labels))
		for i, j := range workload.Permutation(uint64(g.Int63()), len(labels)) {
			out[i] = labels[j]
		}
		return out
	}
	seedOf := func() uint64 { return uint64(g.Int63()) }
	sv := 1 << smallLogV
	return []progSpec{
		{Kind: "rotate", Class: "small", V: sv, Labels: order(9, 8, 7, 6, 5, 4, 3, 2, 1, 0), Sims: true},
		{Kind: "random", Class: "small", V: sv, Steps: 8, Seed: seedOf(), Sims: true},
		{Kind: "compute", Class: "small", V: 1 << 12, Labels: order(11, 8, 4, 0), Work: 16, Sims: true},
		{Kind: "matmul", Class: "small", V: 1 << 8, Seed: seedOf(), Sims: true},
		{Kind: "sort", Class: "small", V: sv, Seed: seedOf(), Sims: true},
		{Kind: "dft", Class: "small", V: sv, Seed: seedOf(), Sims: true},
		{Kind: "rotate", Class: "big", V: 1 << midLogV, Labels: order(midLogV-1, midLogV/2, 0), Sims: true},
		{Kind: "rotate", Class: "big", V: 1 << bigLogV, Labels: order(bigLogV-1, bigLogV/2, 0)},
	}
}

// encodeSpecs is the byte form of a generated list.
func encodeSpecs(specs []progSpec) []byte {
	b, _ := json.Marshal(specs)
	return b
}

// Output words of the algorithm programs, as their constructors
// document them: MatMul leaves C[r][c] in data word 2 of the processor
// at Morton position (r,c); Sort and DFTRecursive leave their outputs
// in data word 0, in processor order.
const (
	matmulCWord = 2
	outWord     = 0
)

// build constructs spec's program and the check of its final contexts
// against a reference computed directly from the same inputs (nil for
// the synthetic programs, whose check is agreement across paths).
func build(s progSpec) (*dbsp.Program, func([][]dbsp.Word) error) {
	switch s.Kind {
	case "rotate":
		return progtest.Rotate(s.V, s.Labels...), nil
	case "random":
		return progtest.RandomProgram(progtest.RandomSpec{V: s.V, Steps: s.Steps, MaxMsgs: 2, Seed: s.Seed}), nil
	case "compute":
		return progtest.ComputeOnly(s.V, s.Work, s.Labels...), nil
	case "matmul":
		side := int(math.Sqrt(float64(s.V)))
		a := workload.Matrix(s.Seed, side, 100)
		b := workload.Matrix(s.Seed+1, side, 100)
		return algos.MatMul(s.V, a, b), func(ctxs [][]dbsp.Word) error {
			for p := range ctxs {
				r, c := algos.MortonDecode(p, dbsp.Log2(s.V))
				var want dbsp.Word
				for k := 0; k < side; k++ {
					want += a(r, k) * b(k, c)
				}
				if got := ctxs[p][matmulCWord]; got != want {
					return fmt.Errorf("C[%d][%d] = %d, direct product %d", r, c, got, want)
				}
			}
			return nil
		}
	case "sort":
		keys := workload.Keys(s.Seed, s.V, 1<<40)
		return algos.Sort(s.V, func(p int) dbsp.Word { return keys[p] }), func(ctxs [][]dbsp.Word) error {
			want := slices.Clone(keys)
			slices.Sort(want)
			for p := range ctxs {
				if ctxs[p][outWord] != want[p] {
					return fmt.Errorf("position %d holds %d, sorted order %d", p, ctxs[p][outWord], want[p])
				}
			}
			return nil
		}
	case "dft":
		x := workload.Keys(s.Seed, s.V, algos.P)
		return algos.DFTRecursive(s.V, func(p int) dbsp.Word { return x[p] }), func(ctxs [][]dbsp.Word) error {
			want := algos.DirectDFT(x)
			for k := range ctxs {
				if ctxs[k][outWord] != want[k] {
					return fmt.Errorf("X[%d] = %d, direct DFT %d", k, ctxs[k][outWord], want[k])
				}
			}
			return nil
		}
	}
	panic("perfbench: unknown program kind " + s.Kind)
}

// contextBytes is the size of spec's processor contexts.
func contextBytes(s progSpec) int {
	p, _ := build(s)
	return s.V * p.Mu() * 8
}

// workingSets lists every engines program's context size, recorded
// beside the cache sizes.
func workingSets() map[string]string {
	out := map[string]string{}
	for _, s := range engineSpecs(0) {
		out[fmt.Sprintf("engines.%s.v%d", s.Kind, s.V)] = fmt.Sprintf("%dK", contextBytes(s)>>10)
	}
	return out
}

// accessFn is the access function of every engines run: f(x) = x^0.5.
var accessFn cost.Func = cost.Poly{Alpha: 0.5}

// paths are the execution paths, in run order; native first, because
// every other path is checked against it.
var paths = []string{"native", "sharded1", "shardedN", "hmmsim", "btsim", "selfsim"}

// pathRun is one (program, path) execution.
type pathRun struct {
	ctxs    [][]dbsp.Word   // dropped once checked; digest stays
	digest  [32]byte        // sha256 of the final contexts
	steps   []dbsp.StepCost // dbsp paths
	cost    float64
	wall    time.Duration
	mallocs uint64           // traced only
	counts  map[string]int64 // the simulators' model counts
}

// runPath executes prog on one path. With traced set it also counts
// the mallocs around the call (ReadMemStats stops the world, so only
// traced runs pay for it).
func runPath(path string, prog *dbsp.Program, traced bool) (pathRun, error) {
	var pr pathRun
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	var err error
	switch path {
	case "native", "sharded1", "shardedN":
		var res *dbsp.Result
		switch path {
		case "native":
			res, err = dbsp.Run(prog, accessFn)
		case "sharded1":
			res, err = dbsp.RunSharded(prog, accessFn, 1)
		default:
			res, err = dbsp.RunSharded(prog, accessFn, runtime.GOMAXPROCS(0))
		}
		pr.wall = time.Since(start)
		if err == nil {
			pr.ctxs, pr.steps, pr.cost = res.Contexts, res.Steps, res.Cost
		}
	case "hmmsim":
		res, e := core.OnHMM(prog, accessFn)
		pr.wall, err = time.Since(start), e
		if err == nil {
			pr.ctxs, pr.cost = res.Contexts, res.HostCost
			pr.counts = map[string]int64{
				"hmmsim.accesses": res.Stats.Reads + res.Stats.Writes,
				"hmmsim.rounds":   res.Rounds,
				"hmmsim.swaps":    res.Swaps,
			}
		}
	case "btsim":
		res, e := core.OnBT(prog, accessFn)
		pr.wall, err = time.Since(start), e
		if err == nil {
			pr.ctxs, pr.cost = res.Contexts, res.HostCost
			pr.counts = map[string]int64{
				"btsim.words":        res.Stats.Reads + res.Stats.Writes + res.Blocks.Words,
				"btsim.block_copies": res.Blocks.Copies,
				"btsim.rounds":       res.Rounds,
				"btsim.swaps":        res.Swaps,
			}
		}
	case "selfsim":
		res, e := core.OnDBSP(prog, accessFn, max(1, prog.V/4))
		pr.wall, err = time.Since(start), e
		if err == nil {
			pr.ctxs, pr.cost = res.Contexts, res.HostCost
			pr.counts = map[string]int64{"selfsim.local_runs": int64(res.LocalRuns)}
		}
	}
	if traced {
		runtime.ReadMemStats(&m1)
		pr.mallocs = m1.Mallocs - m0.Mallocs
	}
	if err != nil {
		return pr, fmt.Errorf("%s on %s: %w", prog.Name, path, err)
	}
	pr.digest = digest(pr.ctxs)
	return pr, nil
}

// digest hashes contexts word by word, so runs can be compared bit for
// bit without keeping a 100 MB context set alive across the next run.
func digest(ctxs [][]dbsp.Word) [32]byte {
	h := sha256.New()
	var buf []byte
	for _, c := range ctxs {
		buf = buf[:0]
		for _, w := range c {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		}
		h.Write(buf)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// checkAgainst compares a path's run with the native one: contexts bit
// for bit, and for the sharded paths every step's τ, h and cost bits.
func checkAgainst(path string, native, got pathRun) error {
	if got.digest != native.digest {
		return fmt.Errorf("%s: final contexts differ from native", path)
	}
	if got.steps == nil {
		return nil
	}
	if len(got.steps) != len(native.steps) || math.Float64bits(got.cost) != math.Float64bits(native.cost) {
		return fmt.Errorf("%s: %d steps cost %v, native %d steps cost %v", path, len(got.steps), got.cost, len(native.steps), native.cost)
	}
	for i, s := range got.steps {
		n := native.steps[i]
		if s.Tau != n.Tau || s.H != n.H || math.Float64bits(s.Cost) != math.Float64bits(n.Cost) {
			return fmt.Errorf("%s: step %d (τ %d, h %d, cost %v), native (τ %d, h %d, cost %v)", path, i, s.Tau, s.H, s.Cost, n.Tau, n.H, n.Cost)
		}
	}
	return nil
}

// engineStats accumulates one engines pass.
type engineStats struct {
	lat       []float64                // per (program, path) run, ms
	cpu       []float64                // process CPU ms during each run
	byPath    map[string]time.Duration // "native.small", "hmmsim", ...
	mallocs   map[string]uint64
	procSteps map[string]int64 // dbsp paths: Σ v × supersteps
	counts    map[string]int64
}

// enginesPass builds the program set and runs every program on its
// paths, checking each against native. rec, when non-nil, records a
// span per build and per path call under parent.
func enginesPass(specs []progSpec, rec *recorder, parent int, r *run) (st engineStats) {
	st = engineStats{byPath: map[string]time.Duration{}, mallocs: map[string]uint64{},
		procSteps: map[string]int64{}, counts: map[string]int64{}}
	traced := rec != nil
	t0 := time.Now()
	progs := make([]*dbsp.Program, len(specs))
	checks := make([]func([][]dbsp.Word) error, len(specs))
	for i, s := range specs {
		progs[i], checks[i] = build(s)
	}
	rec.add(parent, "bench", "build-programs", "", t0, time.Now())
	for i, s := range specs {
		var native pathRun
		for _, path := range paths {
			sim := path == "hmmsim" || path == "btsim" || path == "selfsim"
			if sim && !s.Sims {
				continue
			}
			runtime.GC() // start every timed call from the same heap state
			r.attempted++
			start, cpu0 := time.Now(), cpuTime()
			pr, err := runPath(path, progs[i], traced)
			st.cpu = append(st.cpu, ms(cpuTime()-cpu0))
			rec.add(parent, layerOf(path), fmt.Sprintf("%s %s v=%d", path, s.Kind, s.V), "", start, start.Add(pr.wall))
			st.lat = append(st.lat, ms(pr.wall))
			key := path
			if !sim {
				key = path + "." + s.Class
				st.procSteps[path] += int64(s.V) * int64(len(pr.steps))
				if path == "native" {
					st.counts["dbsp.steps"] += int64(len(pr.steps))
					for _, sc := range pr.steps {
						st.counts["dbsp.h_sum"] += int64(sc.H)
					}
				}
			}
			st.byPath[key] += pr.wall
			st.mallocs[path] += pr.mallocs
			for k, n := range pr.counts {
				st.counts[k] += n
			}
			if err != nil {
				r.fail("engines: %v", err)
				continue
			}
			if path == "native" {
				if checks[i] != nil {
					if err := checks[i](pr.ctxs); err != nil {
						r.fail("engines: %s v=%d: %v", s.Kind, s.V, err)
					}
				}
				pr.ctxs = nil
				native = pr
				continue
			}
			if err := checkAgainst(path, native, pr); err != nil {
				r.fail("engines: %s v=%d: %v", s.Kind, s.V, err)
			}
		}
	}
	return st
}

// layerOf names the module a path exercises.
func layerOf(path string) string {
	switch path {
	case "hmmsim", "btsim", "selfsim":
		return path
	}
	return "dbsp"
}

// minEnginePasses is the fewest passes an engines run makes.
const minEnginePasses = 3

// engines set-up is building the program set, about 0.4 ms of CPU
// time: too short to time alone, since other threads' CPU accounting
// (the GC workers) then dominates a sample. Each setup_s sample is
// therefore the CPU time of enginesSetupReps builds, tens of ms, divided
// by enginesSetupReps; setup_s is the median of enginesSetupSamples.
// The samples are taken before the first pass, as set-up is, so the
// heap they start from (and with it the GC pacing) is that of a fresh
// process.
const (
	enginesSetupSamples = 21
	enginesSetupReps    = 100
)

// enginesSetup returns the median CPU time of one build of specs.
func enginesSetup(specs []progSpec) time.Duration {
	samples := make([]float64, enginesSetupSamples)
	for i := range samples {
		runtime.GC()
		cpu0 := cpuTime()
		for k := 0; k < enginesSetupReps; k++ {
			for _, s := range specs {
				build(s)
			}
		}
		samples[i] = float64(cpuTime()-cpu0) / enginesSetupReps
	}
	return time.Duration(median(samples))
}

// enginesWorkload runs passes over the seeded program set until d has
// passed. engines_s, printed on stderr, is the sum over (program, path)
// runs of each run's median wall over the passes, which a one-off stall
// in one pass cannot move; cpu_ms_per_job is built the same way from
// CPU time.
func enginesWorkload(seed uint64, d time.Duration) (run, error) {
	var r run
	specs := engineSpecs(seed)
	setup := enginesSetup(specs)
	var lats, cpus [][]float64 // per pass, per run in pass order
	var hwms []float64
	start := time.Now()
	for len(lats) < minEnginePasses || time.Since(start) < d {
		runtime.GC()
		resetHWM()
		st := enginesPass(specs, nil, 0, &r)
		hwms = append(hwms, float64(vmHWM())/1024)
		lats = append(lats, st.lat)
		cpus = append(cpus, st.cpu)
	}
	var all []float64
	var wall, cpu float64
	for i := range lats[0] {
		var l, c []float64
		for p := range lats {
			l, c = append(l, lats[p][i]), append(c, cpus[p][i])
		}
		wall += median(l)
		cpu += median(c)
		all = append(all, l...)
	}
	n := float64(len(lats[0]))
	level := tailLevel(minEnginePasses * len(lats[0]))
	tailV, _ := percentile(sortedCopy(all), level)
	r.set("setup_s", "s", setup.Seconds())
	r.set("cpu_ms_per_job", "ms", cpu/n)
	r.set("peak_rss_mb", "MB", median(hwms))
	logf("engines: engines_s %.3f s (sum of per-run medians over %d passes), %.2f runs/s; per run p50 %.3f ms, p%g %.3f ms",
		wall/1000, len(lats), n/(wall/1000), median(all), level, tailV)
	return r, nil
}

// tracedEngines runs one traced pass and sets the engine-layer metrics.
func tracedEngines(rec *recorder, parent int, seed uint64, r *run) (int, time.Duration) {
	specs := engineSpecs(seed)
	t0 := time.Now()
	root := rec.open(parent, "bench", "engines")
	st := enginesPass(specs, rec, root, r)
	rec.close(root)
	for _, p := range [][2]string{{"native", "dbsp.run_ms"}, {"sharded1", "dbsp.sharded1_ms"}, {"shardedN", "dbsp.shardedN_ms"}} {
		for _, c := range []string{"small", "big"} {
			r.set(p[1]+"."+c, "ms", ms(st.byPath[p[0]+"."+c]))
		}
	}
	r.set("dbsp.allocs_per_proc_step", "count", float64(st.mallocs["native"])/float64(st.procSteps["native"]))
	var pass time.Duration
	for _, d := range st.byPath {
		pass += d
	}
	r.set("engines_s", "s", pass.Seconds())
	for _, sim := range []string{"hmmsim", "btsim", "selfsim"} {
		r.set(sim+"_ms", "ms", ms(st.byPath[sim]))
	}
	r.set("hmmsim.ns_per_access", "ns", float64(st.byPath["hmmsim"].Nanoseconds())/float64(st.counts["hmmsim.accesses"]))
	r.set("btsim.ns_per_word", "ns", float64(st.byPath["btsim"].Nanoseconds())/float64(st.counts["btsim.words"]))
	r.set("hmmsim.allocs", "count", float64(st.mallocs["hmmsim"]))
	r.set("btsim.allocs", "count", float64(st.mallocs["btsim"]))
	for _, k := range []string{"dbsp.steps", "dbsp.h_sum", "hmmsim.accesses", "hmmsim.rounds", "hmmsim.swaps",
		"btsim.words", "btsim.block_copies", "btsim.rounds", "btsim.swaps", "selfsim.local_runs"} {
		r.set(k, "count", float64(st.counts[k]))
	}
	return root, time.Since(t0)
}
