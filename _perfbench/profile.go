package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/amsort"
	"repro/internal/bt"
	"repro/internal/cost"
	"repro/internal/stream"
	"repro/internal/workload"
)

// profileStack is a traced run: one traced pass of every workload's
// work set and the kernel probes, so every per-layer metric is measured
// whichever workload is named. Right before the named workload's traced
// pass it times an untraced one, from the same process state (heap
// size, and with it GC pacing, differs a lot after the engines pass);
// the traced-to-untraced ratio is the tracing overhead.
func profileStack(name string, seed uint64, e env) (run, error) {
	var r run
	rec := newRecorder()
	top := rec.open(0, "bench", "stack")
	roots := map[string]int{}
	walls := map[string]time.Duration{}
	var base time.Duration
	order := []string{"paper-sweep", "engines", "dbspd-mix"}
	for _, w := range order {
		var err error
		if w == name {
			if base, err = untracedPass(name, seed, &r); err != nil {
				return r, err
			}
		}
		switch w {
		case "paper-sweep":
			roots[w], walls[w], err = tracedSweep(rec, top, seed, &r)
		case "engines":
			roots[w], walls[w] = tracedEngines(rec, top, seed, &r)
		case "dbspd-mix":
			roots[w], walls[w], err = tracedDbspd(rec, top, seed, &r)
		}
		if err != nil {
			return r, err
		}
	}
	kernelProbes(rec, top, &r)
	rec.close(top)

	ratio := float64(walls[name]) / float64(base)
	r.set("trace.overhead_ratio", "ratio", ratio)
	logf("tracing overhead, %s: traced %.1f ms / untraced %.1f ms = %.3f", name, ms(walls[name]), ms(base), ratio)
	lanes := map[string]int{"paper-sweep": 1, "engines": 1, "dbspd-mix": nproc()}
	for _, w := range order {
		rec.report(roots[w], w, lanes[w])
	}
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := rec.write(path, e); err != nil {
		return r, err
	}
	logf("spans written to %s", path)
	return r, nil
}

// untracedPass runs one pass of the named workload's traced work set
// with tracing off, timed the way the traced pass is.
func untracedPass(name string, seed uint64, r *run) (time.Duration, error) {
	t0 := time.Now()
	switch name {
	case "paper-sweep":
		p, setup, err := spawnSweep("sweep", seed, false)
		if err != nil {
			return 0, err
		}
		r.attempted += len(p.Jobs)
		for _, f := range p.Failures {
			r.fail("paper-sweep: %s", f)
		}
		return setup + time.Duration(p.WallNs), nil
	case "engines":
		enginesPass(engineSpecs(seed), nil, 0, r)
	case "dbspd-mix":
		// A round is a few hundred ms and the process's first one pays
		// for warming up, so the base is the median of minRounds rounds.
		var walls []float64
		var misses []missRec
		for i := 0; i < minRounds; i++ {
			t := time.Now()
			rd, err := runRound(seed, nil, 0)
			walls = append(walls, float64(time.Since(t)))
			if err != nil {
				return 0, err
			}
			misses = append(misses, rd.tally(r)...)
		}
		for _, f := range verifyMisses(misses) {
			r.fail("dbspd-mix: %s", f)
		}
		return time.Duration(median(walls)), nil
	}
	return time.Since(t0), nil
}

// uncached wraps an access function in a non-comparable type, which
// cost.Compile never caches, so every call compiles a fresh table.
type uncached struct {
	cost.Func
	_ []int
}

// Kernel probe shapes: the sizes btsim hands these primitives.
const (
	probeReps     = 5
	compileAddr   = 1 << 20 // a btsim machine at v = 2^14 spans ~2^20 words
	copyWords     = 1 << 22 // words moved per BlockCopy block size
	pipeRegion    = 1 << 16 // one cluster's contexts plus records
	sortRecords   = 1 << 12 // delivery records (tag, src, payload)
	recWords      = 3
	blockCopyHigh = 1 << 15
)

// kernelProbes times the primitives under btsim directly:
// cost.Compile, bt.Machine.BlockCopy, stream.Pipe and amsort.Sort.
func kernelProbes(rec *recorder, parent int, r *run) {
	root := rec.open(parent, "bench", "kernels")
	defer rec.close(root)

	var compiles []float64
	for i := 0; i < probeReps; i++ {
		d := rec.timed(root, "cost", "Compile", func() { cost.Compile(uncached{Func: accessFn}, compileAddr) })
		compiles = append(compiles, ms(d))
	}
	r.set("cost.compile_ms", "ms", median(compiles))

	m := bt.New(accessFn, 2*blockCopyHigh)
	var copyNs []float64
	for i := 0; i < probeReps; i++ {
		var words int64
		d := rec.timed(root, "bt", "BlockCopy", func() {
			for b := int64(16); b <= 4096; b *= 4 {
				for k := int64(0); k < copyWords/b; k++ {
					m.BlockCopy(b-1, blockCopyHigh+b-1, b)
				}
				words += copyWords / b * b
			}
		})
		copyNs = append(copyNs, float64(d.Nanoseconds())/float64(words))
	}
	r.set("bt.blockcopy_ns_per_word", "ns", median(copyNs))

	geo := stream.NewGeometry(accessFn, pipeRegion)
	hot, cold := geo.HotWords(), geo.ColdWords()
	src := 2*hot + 2*cold
	dst := src + pipeRegion
	pm := bt.New(accessFn, dst+pipeRegion)
	pm.PokeRange(src, workloadWords(1, pipeRegion))
	var pipeNs []float64
	for i := 0; i < probeReps; i++ {
		d := rec.timed(root, "stream", "Pipe", func() {
			rd := stream.NewReader(pm, geo, 0, 2*hot, src, pipeRegion)
			wr := stream.NewWriter(pm, geo, hot, 2*hot+cold, dst, pipeRegion)
			stream.Pipe(rd, wr, pipeRegion)
			wr.Close()
		})
		pipeNs = append(pipeNs, float64(d.Nanoseconds())/pipeRegion)
	}
	if pm.Peek(dst+pipeRegion-1) != pm.Peek(src+pipeRegion-1) || pm.Peek(dst) != pm.Peek(src) {
		r.fail("kernels: stream.Pipe did not copy its region")
	}
	r.attempted++
	r.set("stream.pipe_ns_per_word", "ns", median(pipeNs))

	plan := amsort.NewPlan(accessFn, recWords, sortRecords)
	shot, scold := int64(0), plan.HotWords()
	data := scold + plan.ColdWords()
	pingpong := data + sortRecords*recWords
	sm := bt.New(accessFn, pingpong+sortRecords*recWords)
	var sortNs []float64
	for i := 0; i < probeReps; i++ {
		sm.PokeRange(data, workloadWords(uint64(i)+2, sortRecords*recWords))
		d := rec.timed(root, "amsort", "Sort", func() { amsort.Sort(sm, plan, data, pingpong, shot, scold) })
		sortNs = append(sortNs, float64(d.Nanoseconds())/sortRecords)
		r.attempted++
		if !amsort.IsSorted(sm, data, sortRecords, recWords) {
			r.fail("kernels: amsort.Sort left its records unsorted")
		}
	}
	r.set("amsort.ns_per_record", "ns", median(sortNs))
}

func workloadWords(seed uint64, n int64) []bt.Word {
	return workload.Keys(seed, int(n), 1<<40)
}
