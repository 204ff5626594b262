package dbsp

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
)

// TestRunObservedPublishes checks that an observed run's accounting lands
// in the registry verbatim: dbsp.cost.total is exactly Result.Cost, the
// per-label superstep histogram counts every step, and one superstep
// event is emitted per executed superstep.
func TestRunObservedPublishes(t *testing.T) {
	prog := pairProg(16)
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(64)
	o := obs.New(reg, ring)

	res, tr, err := RunTraced(prog, cost.Log{}, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.FloatCounter("dbsp.cost.total").Value(); got != res.Cost {
		t.Errorf("dbsp.cost.total = %v, want exactly %v", got, res.Cost)
	}
	if got := reg.FloatCounter("dbsp.cost.comm").Value(); got != res.CommCost() {
		t.Errorf("dbsp.cost.comm = %v, want %v", got, res.CommCost())
	}
	var sum float64
	for _, ph := range costPhases {
		sum += reg.FloatCounter("dbsp.cost." + ph).Value()
	}
	if rel := (sum - res.Cost) / res.Cost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("phase sum %v vs Cost %v (rel err %v)", sum, res.Cost, rel)
	}
	if got := reg.Counter("dbsp.supersteps").Value(); got != int64(len(res.Steps)) {
		t.Errorf("dbsp.supersteps = %d, want %d", got, len(res.Steps))
	}
	var byLabel int64
	for l := 0; l <= Log2(prog.V); l++ {
		byLabel += reg.Counter(fmt.Sprintf("dbsp.lambda.label.%d", l)).Value()
	}
	if byLabel != int64(len(res.Steps)) {
		t.Errorf("Σ dbsp.lambda.label.* = %d, want %d", byLabel, len(res.Steps))
	}
	if got := reg.Counter("dbsp.messages").Value(); got != tr.Messages() {
		t.Errorf("dbsp.messages = %d, want %d", got, tr.Messages())
	}

	var events int
	var evCost float64
	for _, e := range ring.Events() {
		if e.Sim == "dbsp" && e.Kind == "superstep" {
			events++
			evCost += e.Cost
		}
	}
	if events != len(res.Steps) {
		t.Errorf("superstep events = %d, want %d", events, len(res.Steps))
	}
	if rel := (evCost - res.Cost) / res.Cost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("Σ event cost %v vs Cost %v", evCost, res.Cost)
	}
}

// TestRunObservedNilObserver: RunTraced with a nil observer must still
// record the trace and match the untraced run's cost.
func TestRunObservedNilObserver(t *testing.T) {
	prog := pairProg(8)
	res, tr, err := RunTraced(prog, cost.Log{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(prog, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != plain.Cost {
		t.Errorf("cost %v vs %v", res.Cost, plain.Cost)
	}
	if tr.Messages() == 0 {
		t.Error("trace not recorded")
	}
}
