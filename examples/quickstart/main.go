// Quickstart: write a D-BSP program, run it natively on the sharded
// D-BSP engine, then simulate it on a hierarchical-memory
// (HMM) host and see the paper's headline result — the slowdown is
// linear in the lost parallelism, with no extra hierarchy penalty.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dbsp"
)

func main() {
	const v = 64 // processors (a power of two)

	// A hierarchical exchange: at every level i from the finest
	// clusters to the whole machine, each processor swaps its running
	// value with a partner inside its i-cluster — the canonical
	// submachine-locality pattern (most supersteps touch only small,
	// fast submachines).
	prog := &dbsp.Program{
		Name:   "quickstart",
		V:      v,
		Layout: dbsp.Layout{Data: 2, MaxMsgs: 1},
		Init: func(p int, data []dbsp.Word) {
			data[0] = dbsp.Word(p * p)
		},
	}
	for i := dbsp.Log2(v) - 1; i >= 0; i-- {
		bit := dbsp.Word(1) << uint(dbsp.Log2(v)-1-i)
		prog.Steps = append(prog.Steps, dbsp.Superstep{Label: i, Run: func(c *dbsp.Ctx) {
			// Fold in the partner value from the previous level, then
			// exchange with the partner of this level.
			acc := c.Load(0)
			if c.NumRecv() == 1 {
				_, payload := c.Recv(0)
				acc += payload
			}
			c.Store(0, acc)
			c.Send(c.ID()^int(bit), acc)
		}})
	}
	// The closing 0-superstep: a global barrier consuming the last
	// exchange.
	prog.Steps = append(prog.Steps, dbsp.Superstep{Label: 0, Run: func(c *dbsp.Ctx) {
		_, payload := c.Recv(0)
		c.Store(1, payload)
	}})

	// g(x) = x^0.5: communication inside a cluster with aggregate
	// memory x costs g(x) per message.
	g := cost.Poly{Alpha: 0.5}

	native, err := dbsp.Run(prog, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native D-BSP(v=%d, µ=%d, g=%s): T = %.2f\n",
		v, prog.Mu(), g.Name(), native.Cost)

	// Simulate the same program on a sequential machine whose memory
	// access cost is f(x) = g(x) — the Section 3 scheme.
	sim, err := core.OnHMM(prog, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HMM simulation: cost = %.2f, slowdown = %.1f = %.1f·v\n",
		sim.HostCost, sim.HostCost/native.Cost, sim.HostCost/native.Cost/float64(v))

	// The final states agree bit for bit.
	for p := 0; p < v; p++ {
		want := native.Contexts[p][1]
		if got := sim.Contexts[p][1]; got != want {
			log.Fatalf("proc %d: simulation diverged: %d != %d", p, got, want)
		}
	}
	fmt.Println("final contexts identical across native run and simulation ✓")
}
