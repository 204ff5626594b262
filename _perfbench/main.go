// Command perfbench is the repository's benchmark: three workloads
// driven through the public entry points of each layer, every output
// checked, every end-to-end metric printed by name and unit.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload paper-sweep|engines|dbspd-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the workload runs untraced and the last stdout line
// carries the end-to-end metrics. With --trace 1 the run profiles the
// whole stack instead: one traced pass of every workload's work set
// plus the kernel probes, with an untraced pass of the named workload
// timed right before its traced one, and the last line carries the
// per-layer metrics. The
// spans are written to .bench_build/perfbench/ and a self-time report
// goes to stderr. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// result is the last stdout line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is what one workload pass (or set of passes) hands back: the ops
// it attempted, the ones that failed a check (with one line per
// failure for stderr), and its metrics.
type run struct {
	attempted int
	failures  []string
	metrics   map[string]metric
}

func (r *run) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(seed uint64, d time.Duration) (run, error){
	"paper-sweep": paperSweep,
	"engines":     enginesWorkload,
	"dbspd-mix":   dbspdMix,
}

func main() {
	workload := flag.String("workload", "", "paper-sweep, engines or dbspd-mix")
	seed := flag.Uint64("seed", 0, "workload seed")
	seconds := flag.Int("seconds", 30, "measured time per run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	child := flag.String("child", "", "internal: run one fresh-process paper-sweep pass (sweep) or set-up probe (setup)")
	flag.Parse()

	if *child != "" {
		if err := sweepChild(*child, *seed, *trace == 1); err != nil {
			fatal("%v", err)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-sweep|engines|dbspd-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := checkRoot(); err != nil {
		fatal("%v", err)
	}

	env := captureEnv(*workload, *seed, *trace == 1)
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(envLine))

	var r run
	if *trace == 1 {
		r, err = profileStack(*workload, *seed, env)
	} else {
		r, err = drive(*seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fatal("%s: %v", *workload, err)
	}
	for _, f := range r.failures {
		logf("FAIL %s", f)
	}
	failed := len(r.failures)
	if failed > r.attempted {
		failed = r.attempted
	}
	logf("%s error_rate %d/%d", *workload, failed, r.attempted)
	out, err := json.Marshal(result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(out))
}

// checkRoot refuses to run outside a repository checkout: the
// benchmark reads EXPERIMENTS.md and builds the module it measures.
func checkRoot() error {
	for _, f := range []string{"go.mod", "EXPERIMENTS.md"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root (%v)", err)
		}
	}
	return nil
}

func fatal(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}

// logf prints a progress or report line on stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// nproc is the client and worker count: one per CPU.
func nproc() int { return runtime.NumCPU() }
