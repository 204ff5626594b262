package dbsp

import (
	"strings"
	"testing"

	"repro/internal/cost"
)

// pairProg: neighbours exchange within 2-clusters, then a global rotate.
func pairProg(v int) *Program {
	logv := Log2(v)
	return &Program{
		Name:   "trace-pair",
		V:      v,
		Layout: Layout{Data: 1, MaxMsgs: 1},
		Init:   func(p int, data []Word) { data[0] = Word(p) },
		Steps: []Superstep{
			{Label: logv - 1, Run: func(c *Ctx) { c.Send(c.ID()^1, c.Load(0)) }},
			{Label: 0, Run: func(c *Ctx) { c.Send((c.ID()+c.V()/2)%c.V(), c.Load(0)) }},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
}

func TestRunTracedMatchesRun(t *testing.T) {
	prog := pairProg(16)
	plain, err := Run(prog, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	traced, tr, err := RunTraced(prog, cost.Log{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Cost != plain.Cost {
		t.Errorf("traced cost %g != plain %g", traced.Cost, plain.Cost)
	}
	for p := range plain.Contexts {
		for i := range plain.Contexts[p] {
			if plain.Contexts[p][i] != traced.Contexts[p][i] {
				t.Fatal("traced run changed results")
			}
		}
	}
	if tr.Messages() != 32 {
		t.Errorf("Messages = %d, want 32 (16 + 16)", tr.Messages())
	}
}

func TestLocalityLevel(t *testing.T) {
	if got := LocalityLevel(16, 5, 5); got != 4 {
		t.Errorf("same proc level = %d, want log v", got)
	}
	if got := LocalityLevel(16, 0, 1); got != 3 {
		t.Errorf("neighbours = %d, want 3", got)
	}
	if got := LocalityLevel(16, 0, 15); got != 0 {
		t.Errorf("opposite halves = %d, want 0", got)
	}
	if got := LocalityLevel(16, 4, 7); got != 2 {
		t.Errorf("same quad = %d, want 2", got)
	}
}

func TestLocalityHistogramAndSlack(t *testing.T) {
	v := 16
	prog := pairProg(v)
	_, tr, err := RunTraced(prog, cost.Log{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hist := tr.LocalityHistogram()
	// Step 1: 16 messages between XOR-1 neighbours: level log v -1 = 3.
	if hist[3] != 16 {
		t.Errorf("hist[3] = %d, want 16", hist[3])
	}
	// Step 2: 16 messages across half the machine: level 0.
	if hist[0] != 16 {
		t.Errorf("hist[0] = %d, want 16", hist[0])
	}
	// Slack: step 1 declared label 3 = exact (slack 0); step 2 label 0 =
	// exact. Average slack 0.
	if s := tr.Slack(); s != 0 {
		t.Errorf("slack = %g, want 0 (labels are tight)", s)
	}
	// A sloppy variant: declaring everything at label 0 leaves slack.
	sloppy := pairProg(v)
	sloppy.Steps[0].Label = 0
	_, tr2, err := RunTraced(sloppy, cost.Log{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := tr2.Slack(); s != 1.5 {
		t.Errorf("sloppy slack = %g, want 1.5 (16 messages with slack 3, 16 with 0)", s)
	}
}

func TestFormatHistogram(t *testing.T) {
	_, tr, err := RunTraced(pairProg(8), cost.Log{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tr.FormatHistogram()
	if !strings.Contains(out, "level") || !strings.Contains(out, "#") {
		t.Errorf("histogram rendering incomplete:\n%s", out)
	}
}

func TestTraceEmptyProgram(t *testing.T) {
	prog := &Program{Name: "empty-trace", V: 4, Layout: Layout{Data: 1},
		Steps: []Superstep{{Label: 0, Run: func(c *Ctx) {}}}}
	_, tr, err := RunTraced(prog, cost.Log{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Messages() != 0 || tr.Slack() != 0 {
		t.Error("empty trace not empty")
	}
}
