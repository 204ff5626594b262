package dbsp_test

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/dbsp"
)

// Example builds and runs a minimal D-BSP program: four processors
// exchange values with their neighbour inside 2-processor clusters.
func Example() {
	prog := &dbsp.Program{
		Name:   "example",
		V:      4,
		Layout: dbsp.Layout{Data: 2, MaxMsgs: 1},
		Init:   func(p int, data []dbsp.Word) { data[0] = dbsp.Word(10 * p) },
		Steps: []dbsp.Superstep{
			{Label: 1, Run: func(c *dbsp.Ctx) {
				c.Send(c.ID()^1, c.Load(0))
			}},
			{Label: 0, Run: func(c *dbsp.Ctx) {
				_, payload := c.Recv(0)
				c.Store(1, payload)
			}},
		},
	}
	res, err := dbsp.Run(prog, cost.Log{})
	if err != nil {
		fmt.Println(err)
		return
	}
	for p := 0; p < 4; p++ {
		fmt.Printf("P%d received %d\n", p, res.Contexts[p][1])
	}
	// Output:
	// P0 received 10
	// P1 received 0
	// P2 received 30
	// P3 received 20
}

// ExampleRunTraced measures how local a program's communication really
// is, independent of its declared labels.
func ExampleRunTraced() {
	prog := &dbsp.Program{
		Name:   "traced",
		V:      8,
		Layout: dbsp.Layout{Data: 1, MaxMsgs: 1},
		Steps: []dbsp.Superstep{
			{Label: 1, Run: func(c *dbsp.Ctx) {
				// Neighbour exchange declared one level coarser than the
				// traffic requires: one level of unexposed locality.
				c.Send(c.ID()^1, 1)
			}},
			{Label: 0, Run: func(c *dbsp.Ctx) {}},
		},
	}
	_, tr, err := dbsp.RunTraced(prog, cost.Log{}, dbsp.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("messages: %d, slack: %.0f level(s)\n", tr.Messages(), tr.Slack())
	// Output:
	// messages: 8, slack: 1 level(s)
}
