package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// sweepPass is what one fresh-process paper sweep reports back.
type sweepPass struct {
	FirstOp  int64              `json:"first_op_unix_ns"` // when sweep.Run was called
	SetupCPU int64              `json:"setup_cpu_ns"`     // the process's CPU time by then
	WallNs   int64              `json:"wall_ns"`          // sweep.Run's wall time
	CPUNs    int64              `json:"cpu_ns"`           // the process's CPU time during sweep.Run
	Jobs     []sweepJob         `json:"jobs"`
	Failures []string           `json:"failures"`
	HWMkB    int64              `json:"hwm_kb"`
	Counts   map[string]float64 `json:"counts,omitempty"` // traced: obs samples summed over jobs
}

type sweepJob struct {
	ID      string `json:"id"`
	StartNs int64  `json:"start_ns"`
	WallNs  int64  `json:"wall_ns"`
}

// minSweepPasses is the fewest sweeps a paper-sweep run makes.
const minSweepPasses = 3

// setupProbes is how many extra fresh processes a paper-sweep run
// starts only to time set-up, so setup_s is a median of enough
// samples.
const setupProbes = 14

// paperSweep runs the full paper grid in a fresh process per pass, as
// a cmd/experiments user does, until d has passed. sweep_s, printed on
// stderr, is the sum over experiments of each one's median wall over
// the passes plus the median engine overhead, which a one-off stall in
// one pass cannot move.
func paperSweep(seed uint64, d time.Duration) (run, error) {
	var r run
	byJob := map[string][]float64{} // experiment -> wall ms per pass
	var ids []string
	var overheads, cpus, setups, setupWalls, hwms []float64
	start := time.Now()
	for len(cpus) < minSweepPasses || time.Since(start) < d {
		p, setup, err := spawnSweep("sweep", seed, false)
		if err != nil {
			return r, err
		}
		r.attempted += len(p.Jobs)
		for _, f := range p.Failures {
			r.fail("paper-sweep pass %d: %s", len(cpus), f)
		}
		over := float64(p.WallNs) / 1e6
		for _, j := range p.Jobs {
			if byJob[j.ID] == nil {
				ids = append(ids, j.ID)
			}
			byJob[j.ID] = append(byJob[j.ID], float64(j.WallNs)/1e6)
			over -= float64(j.WallNs) / 1e6
		}
		overheads = append(overheads, over)
		cpus = append(cpus, float64(p.CPUNs)/1e6)
		setups = append(setups, float64(p.SetupCPU)/1e9)
		setupWalls = append(setupWalls, setup.Seconds())
		hwms = append(hwms, float64(p.HWMkB)/1024)
	}
	for i := 0; i < setupProbes; i++ {
		p, setup, err := spawnSweep("setup", seed, false)
		if err != nil {
			return r, err
		}
		setups = append(setups, float64(p.SetupCPU)/1e9)
		setupWalls = append(setupWalls, setup.Seconds())
	}
	sweepMs := median(overheads)
	for _, id := range ids {
		sweepMs += median(byJob[id])
	}
	nJobs := float64(len(ids))
	r.set("setup_s", "s", median(setups))
	r.set("cpu_ms_per_job", "ms", median(cpus)/nJobs)
	r.set("peak_rss_mb", "MB", median(hwms))
	logf("paper-sweep: sweep_s %.3f s (sum of per-experiment medians over %d sweeps), %.3f experiments/s; set-up wall %.2f ms",
		sweepMs/1000, len(cpus), nJobs/(sweepMs/1000), 1000*median(setupWalls))
	return r, nil
}

// spawnSweep runs one child pass and returns its report and set-up
// time: process start to the child's first measured operation.
func spawnSweep(mode string, seed uint64, traced bool) (sweepPass, time.Duration, error) {
	var p sweepPass
	exe, err := os.Executable()
	if err != nil {
		return p, 0, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-child", mode, "-seed", strconv.FormatUint(seed, 10), "-trace", tr)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return p, 0, fmt.Errorf("sweep child: %w", err)
	}
	if err := json.Unmarshal(out, &p); err != nil {
		return p, 0, fmt.Errorf("sweep child output: %w", err)
	}
	return p, time.Unix(0, p.FirstOp).Sub(t0), nil
}

// sweepChild is the child side: in "setup" mode it builds the catalog
// and reports when it would have started; in "sweep" mode it runs the
// same sweep.Run call cmd/experiments makes (Workers 1, the seed as base
// seed) and checks the tables.
func sweepChild(mode string, seed uint64, traced bool) error {
	jobs := experiments.Jobs()
	var p sweepPass
	p.FirstOp, p.SetupCPU = time.Now().UnixNano(), cpuTime().Nanoseconds()
	switch mode {
	case "setup":
	case "sweep":
		start, cpu0 := time.Now(), cpuTime()
		outs, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 1, Seed: seed})
		p.WallNs = time.Since(start).Nanoseconds()
		p.CPUNs = (cpuTime() - cpu0).Nanoseconds()
		if err != nil {
			p.Failures = append(p.Failures, fmt.Sprintf("sweep.Run: %v", err))
		}
		var doc []byte
		if seed == 0 {
			if doc, err = os.ReadFile("EXPERIMENTS.md"); err != nil {
				return err
			}
		}
		p.Failures = append(p.Failures, checkSweep(outs, seed, doc)...)
		for _, o := range outs {
			p.Jobs = append(p.Jobs, sweepJob{ID: o.ID, StartNs: o.Start.Nanoseconds(), WallNs: o.Wall.Nanoseconds()})
		}
		if traced {
			// Metric capture slows the simulators several-fold, so the
			// counts come from a separate quick-grid sweep after the
			// timed one.
			counted, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 1, Seed: seed, Quick: true, Metrics: true})
			if err != nil {
				p.Failures = append(p.Failures, fmt.Sprintf("counting sweep: %v", err))
			}
			p.Counts = sumCounts(counted)
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	p.HWMkB = vmHWM()
	return json.NewEncoder(os.Stdout).Encode(p)
}

// checkSweep returns one line per problem: a job that did not finish
// ok, a cell reading DIVERGED, and at seed 0 any departure of the
// rendered tables from the region committed in EXPERIMENTS.md (the
// check scripts/check_experiments.sh makes).
func checkSweep(outs []sweep.Outcome, seed uint64, doc []byte) []string {
	var bad []string
	var body bytes.Buffer
	for _, o := range outs {
		t, ok := o.Value.(*experiments.Table)
		if o.Status != sweep.StatusOK || !ok {
			bad = append(bad, fmt.Sprintf("%s: %s: %v", o.ID, o.Status, o.Err))
			continue
		}
		for i, row := range t.Rows {
			for _, cell := range row {
				if strings.Contains(cell, "DIVERGED") {
					bad = append(bad, fmt.Sprintf("%s row %d: DIVERGED", o.ID, i))
				}
			}
		}
		body.WriteString(t.Render())
		body.WriteByte('\n')
	}
	if seed == 0 && !bytes.Contains(doc, body.Bytes()) {
		n := 0
		for _, o := range outs {
			if t, ok := o.Value.(*experiments.Table); ok && !bytes.Contains(doc, []byte(t.Render())) {
				bad = append(bad, fmt.Sprintf("%s: table differs from EXPERIMENTS.md", o.ID))
				n++
			}
		}
		if n == 0 {
			bad = append(bad, "tables are not one contiguous region of EXPERIMENTS.md")
		}
	}
	return bad
}

// countNames are the deterministic model counts the traced sweep
// reports, summed over the quick grid's obs snapshots. They must
// repeat exactly; a change is model drift. (The experiments run dbsp
// without an observer, so the snapshots hold no dbsp.* counts; the
// engines pass reports dbsp.steps and dbsp.h_sum instead.)
var countNames = []string{
	"hmm.reads", "hmm.writes", "hmm.rounds", "hmm.swaps",
	"bt.reads", "bt.writes", "bt.rounds", "bt.swaps",
	"bt.blocks.copies", "bt.blocks.moved",
	"self.global.steps", "self.local.runs",
	"hmm.cost.compute", "hmm.cost.deliver", "hmm.cost.swap",
	"bt.cost.compute", "bt.cost.deliver",
}

func sumCounts(outs []sweep.Outcome) map[string]float64 {
	want := map[string]bool{}
	for _, n := range countNames {
		want[n] = true
	}
	sums := map[string]float64{}
	for _, o := range outs {
		for _, s := range o.Metrics {
			if want[s.Name] {
				sums[s.Name] += s.Value
			}
		}
	}
	return sums
}

// tracedSweep runs one traced fresh-process pass and turns it into
// spans and per-layer metrics: sweep.job_ms.<id>, sweep.overhead_ms and
// the model counts.
func tracedSweep(rec *recorder, parent int, seed uint64, r *run) (int, time.Duration, error) {
	t0 := time.Now()
	p, setup, err := spawnSweep("sweep", seed, true)
	if err != nil {
		return 0, 0, err
	}
	// The pass ends with sweep.Run; the child's counting sweep after it
	// is not part of the workload.
	first := time.Unix(0, p.FirstOp)
	end := first.Add(time.Duration(p.WallNs))
	root := rec.add(parent, "bench", "paper-sweep", "", t0, end)
	rec.add(root, "bench", "process-setup", "", t0, first)
	run := rec.add(root, "sweep", "sweep.Run", "", first, end)
	var jobSum int64
	for _, j := range p.Jobs {
		js := first.Add(time.Duration(j.StartNs))
		rec.add(run, "experiments", j.ID, "", js, js.Add(time.Duration(j.WallNs)))
		r.set("sweep.job_ms."+j.ID, "ms", float64(j.WallNs)/1e6)
		jobSum += j.WallNs
	}
	r.attempted += len(p.Jobs)
	for _, f := range p.Failures {
		r.fail("traced paper-sweep: %s", f)
	}
	r.set("sweep.overhead_ms", "ms", float64(p.WallNs-jobSum)/1e6)
	r.set("sweep_s", "s", float64(p.WallNs)/1e9)
	names := append([]string(nil), countNames...)
	sort.Strings(names)
	for _, n := range names {
		unit := "count"
		if strings.Contains(n, ".cost.") {
			unit = "model"
		}
		r.set(n, unit, p.Counts[n])
	}
	logf("traced paper-sweep: set-up %.1f ms, sweep %.1f ms", ms(setup), float64(p.WallNs)/1e6)
	return root, end.Sub(t0), nil
}
