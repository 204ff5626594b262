package dbsp

import (
	"sync/atomic"
	"testing"

	"repro/internal/cost"
)

// Run executes shards concurrently at the default shard count; this
// test hammers it with a large machine and many supersteps so
// `go test -race` can catch any sharing bug between shard goroutines,
// delivery and cost accounting.
func TestEngineConcurrencyStress(t *testing.T) {
	v := 512
	logv := Log2(v)
	var handlerRuns int64
	prog := &Program{
		Name:   "stress",
		V:      v,
		Layout: Layout{Data: 4, MaxMsgs: 2},
		Init:   func(p int, data []Word) { data[0] = Word(p) },
	}
	for s := 0; s < 24; s++ {
		label := s % (logv + 1)
		prog.Steps = append(prog.Steps, Superstep{Label: label, Run: func(c *Ctx) {
			atomic.AddInt64(&handlerRuns, 1)
			acc := c.Load(0)
			for k := 0; k < c.NumRecv(); k++ {
				_, payload := c.Recv(k)
				acc += payload
			}
			c.Store(0, acc)
			cs := ClusterSize(c.V(), c.Label())
			lo := (c.ID() / cs) * cs
			c.Send(lo+(c.ID()-lo+1)%cs, acc)
			c.Work(3)
		}})
	}
	prog.Steps = append(prog.Steps, Superstep{Label: 0, Run: func(c *Ctx) {
		atomic.AddInt64(&handlerRuns, 1)
	}})
	res, err := Run(prog, cost.Poly{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&handlerRuns); got != int64(v*25) {
		t.Errorf("handler runs = %d, want %d", got, v*25)
	}
	if res.Cost <= 0 {
		t.Error("no cost accumulated")
	}
	// Determinism under concurrency: run twice, compare.
	res2, err := Run(prog, cost.Poly{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for p := range res.Contexts {
		for i := range res.Contexts[p] {
			if res.Contexts[p][i] != res2.Contexts[p][i] {
				t.Fatalf("nondeterministic result at proc %d word %d", p, i)
			}
		}
	}
}
