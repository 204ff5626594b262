package dbsp

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
)

// shardProg builds a v-processor program whose traffic crosses every
// shard boundary: each superstep a processor folds its inbox into
// data[0] and sends the sum a varying stride ahead within its cluster,
// so messages are a mix of self-sends, intra-shard hops and cross-shard
// hops at every tested shard count.
func shardProg(v, steps int) *Program {
	logv := Log2(v)
	prog := &Program{
		Name:   "shardprog",
		V:      v,
		Layout: Layout{Data: 2, MaxMsgs: 3},
		Init:   func(p int, data []Word) { data[0] = Word(3*p + 1) },
	}
	for s := 0; s < steps; s++ {
		label := (s * 2) % (logv + 1)
		stride := 1 << (s % 4) // includes stride ≡ 0 mod cluster: self-sends
		prog.Steps = append(prog.Steps, Superstep{Label: label, Run: func(c *Ctx) {
			acc := c.Load(0)
			for k := 0; k < c.NumRecv(); k++ {
				src, payload := c.Recv(k)
				acc += payload + Word(src)
			}
			c.Store(0, acc)
			cs := ClusterSize(c.V(), c.Label())
			lo := (c.ID() / cs) * cs
			c.Send(lo+(c.ID()-lo+stride)%cs, acc)
			c.Work(int64(c.ID() % 5))
		}})
	}
	prog.Steps = append(prog.Steps, Superstep{Label: 0, Run: func(c *Ctx) {
		acc := c.Load(0)
		for k := 0; k < c.NumRecv(); k++ {
			_, payload := c.Recv(k)
			acc += payload
		}
		c.Store(1, acc)
	}})
	return prog
}

// requireIdentical asserts two results agree bit-for-bit: contexts word
// by word, per-step integer costs, and every charged float64 compared
// by Float64bits, not tolerance. ref is the one-shard reference run.
func requireIdentical(t *testing.T, ref, got *Result) {
	t.Helper()
	if len(ref.Steps) != len(got.Steps) {
		t.Fatalf("step counts differ: one shard %d, got %d", len(ref.Steps), len(got.Steps))
	}
	for i := range ref.Steps {
		r, g := ref.Steps[i], got.Steps[i]
		if r.Label != g.Label || r.Tau != g.Tau || r.H != g.H {
			t.Fatalf("step %d: one shard {label %d τ %d h %d}, got {label %d τ %d h %d}",
				i, r.Label, r.Tau, r.H, g.Label, g.Tau, g.H)
		}
		if math.Float64bits(r.Cost) != math.Float64bits(g.Cost) {
			t.Fatalf("step %d cost bits differ: one shard %x, got %x",
				i, math.Float64bits(r.Cost), math.Float64bits(g.Cost))
		}
	}
	if math.Float64bits(ref.Cost) != math.Float64bits(got.Cost) {
		t.Fatalf("total cost bits differ: one shard %x, got %x",
			math.Float64bits(ref.Cost), math.Float64bits(got.Cost))
	}
	if ref.MaxTau != got.MaxTau {
		t.Fatalf("MaxTau differs: one shard %d, got %d", ref.MaxTau, got.MaxTau)
	}
	if len(ref.Contexts) != len(got.Contexts) {
		t.Fatalf("context counts differ: %d vs %d", len(ref.Contexts), len(got.Contexts))
	}
	for p := range ref.Contexts {
		for i := range ref.Contexts[p] {
			if ref.Contexts[p][i] != got.Contexts[p][i] {
				t.Fatalf("proc %d word %d: one shard %d, got %d",
					p, i, ref.Contexts[p][i], got.Contexts[p][i])
			}
		}
	}
}

// TestRunShardedMatchesNative sweeps shard counts — 2, a non-divisor
// of v (uneven last shard), v itself, shards > v, and the GOMAXPROCS
// default — and requires bit-identical agreement with the one-shard
// run, where every superstep runs fused, on a program whose sends
// cross shard boundaries. RunTraced at each count runs the two-phase
// exchange on every superstep and must agree too.
func TestRunShardedMatchesNative(t *testing.T) {
	g := cost.Poly{Alpha: 0.5}
	for _, v := range []int{1, 2, 8, 64, 128} {
		prog := shardProg(v, 9)
		ref, err := RunSharded(prog, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 7, v, v + 13, 0} {
			sharded, err := RunSharded(prog, g, shards)
			if err != nil {
				t.Fatalf("v=%d shards=%d: %v", v, shards, err)
			}
			requireIdentical(t, ref, sharded)
			traced, _, err := RunTraced(prog, g, Options{Shards: shards})
			if err != nil {
				t.Fatalf("v=%d traced shards=%d: %v", v, shards, err)
			}
			requireIdentical(t, ref, traced)
		}
	}
}

// TestShardCount pins the resolution rules: <= 0 is the GOMAXPROCS
// default, counts clamp to [1, v].
func TestShardCount(t *testing.T) {
	if got := shardCount(4, 100); got != 4 {
		t.Errorf("shardCount(4, 100) = %d, want 4", got)
	}
	if got := shardCount(200, 100); got != 100 {
		t.Errorf("shardCount(200, 100) = %d, want clamp to 100", got)
	}
	if got := shardCount(0, 100); got < 1 || got > 100 {
		t.Errorf("shardCount(0, 100) = %d, want in [1, 100]", got)
	}
	if got := shardCount(-3, 1); got != 1 {
		t.Errorf("shardCount(-3, 1) = %d, want 1", got)
	}
}

// TestNewContextsShardedMatchesFlat: the engine's per-shard arenas must hold the
// word-for-word initial state of the flat allocator, including an
// uneven final shard.
func TestNewContextsShardedMatchesFlat(t *testing.T) {
	prog := shardProg(64, 1)
	flat := NewContexts(prog)
	for _, shards := range []int{1, 5, 64, 200} {
		got := newShardEngine(prog, shards).ctxs
		if len(got) != len(flat) {
			t.Fatalf("shards=%d: %d contexts, want %d", shards, len(got), len(flat))
		}
		for p := range flat {
			if len(got[p]) != len(flat[p]) {
				t.Fatalf("shards=%d proc %d: µ=%d, want %d", shards, p, len(got[p]), len(flat[p]))
			}
			for i := range flat[p] {
				if got[p][i] != flat[p][i] {
					t.Fatalf("shards=%d proc %d word %d: %d, want %d", shards, p, i, got[p][i], flat[p][i])
				}
			}
		}
	}
}

// TestShardedSelfSends: a superstep where every processor sends only to
// itself never crosses a shard boundary; the exchange must still clear
// outboxes, fill inboxes and report h = 1.
func TestShardedSelfSends(t *testing.T) {
	prog := &Program{
		Name:   "selfsend",
		V:      16,
		Layout: Layout{Data: 1, MaxMsgs: 2},
		Init:   func(p int, data []Word) { data[0] = Word(p) },
		Steps: []Superstep{
			{Label: Log2(16), Run: func(c *Ctx) { c.Send(c.ID(), c.Load(0)*2) }},
			{Label: 0, Run: func(c *Ctx) {
				if c.NumRecv() != 1 {
					panic("self-send not delivered")
				}
				src, payload := c.Recv(0)
				if src != c.ID() {
					panic("self-send delivered with wrong source")
				}
				c.Store(0, payload)
			}},
		},
	}
	for _, shards := range []int{1, 3, 16} {
		res, err := RunSharded(prog, cost.Log{}, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Steps[0].H != 1 {
			t.Errorf("shards=%d: h = %d for self-send superstep, want 1", shards, res.Steps[0].H)
		}
		for p, ctx := range res.Contexts {
			if ctx[0] != Word(2*p) {
				t.Errorf("shards=%d proc %d: data[0] = %d, want %d", shards, p, ctx[0], 2*p)
			}
		}
	}
}

// TestShardedFanOutH: processor 0 sends one message to each of the
// other processors, so h comes from a sent count, not a received one.
// Both paths must fold it: the fused one at one shard, the two-phase
// exchange at more shards and under RunTraced.
func TestShardedFanOutH(t *testing.T) {
	prog := &Program{
		Name:   "fanout",
		V:      8,
		Layout: Layout{Data: 1, MaxMsgs: 7},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) {
				if c.ID() == 0 {
					for q := 1; q < c.V(); q++ {
						c.Send(q, Word(q))
					}
				}
			}},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
	ref, err := RunSharded(prog, cost.Log{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Steps[0].H != 7 {
		t.Fatalf("one-shard h = %d, want 7", ref.Steps[0].H)
	}
	for _, shards := range []int{1, 2, 4} {
		res, err := RunSharded(prog, cost.Log{}, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		requireIdentical(t, ref, res)
		res, _, err = RunTraced(prog, cost.Log{}, Options{Shards: shards})
		if err != nil {
			t.Fatalf("traced shards=%d: %v", shards, err)
		}
		requireIdentical(t, ref, res)
	}
}

// TestShardedZeroMessageSuperstep: supersteps that send nothing must
// clear stale inboxes and charge h = 0 at every shard count.
func TestShardedZeroMessageSuperstep(t *testing.T) {
	prog := &Program{
		Name:   "quiet",
		V:      8,
		Layout: Layout{Data: 1, MaxMsgs: 2},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) { c.Send((c.ID()+1)%c.V(), 7) }},
			{Label: 0, Run: func(c *Ctx) { c.Work(1) }}, // sends nothing
			{Label: 0, Run: func(c *Ctx) {
				if c.NumRecv() != 0 {
					panic("stale inbox survived a zero-message superstep")
				}
			}},
		},
	}
	for _, shards := range []int{1, 3, 8} {
		res, err := RunSharded(prog, cost.Log{}, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Steps[1].H != 0 || res.Steps[2].H != 0 {
			t.Errorf("shards=%d: h = %d,%d for zero-message supersteps, want 0,0",
				shards, res.Steps[1].H, res.Steps[2].H)
		}
	}
}

// TestShardedCrossShardOverflow overflows an inbox from senders in a
// different shard and checks the error names the overflowing processor
// — and is byte-identical to the one-shard error, whichever shard
// count partitions senders from the victim.
func TestShardedCrossShardOverflow(t *testing.T) {
	v := 16
	prog := &Program{
		Name:   "overflow",
		V:      v,
		Layout: Layout{Data: 1, MaxMsgs: 2},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) {
				// Processors 12..14 all target processor 3: the third
				// delivery overflows MaxMsgs=2.
				if c.ID() >= 12 && c.ID() <= 14 {
					c.Send(3, Word(c.ID()))
				}
			}},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
	_, refErr := RunSharded(prog, cost.Log{}, 1)
	if refErr == nil {
		t.Fatal("one shard accepted an overflowing program")
	}
	if !strings.Contains(refErr.Error(), "inbox overflow at processor 3") {
		t.Fatalf("one-shard overflow error %q does not name processor 3", refErr)
	}
	for _, shards := range []int{2, 4, 16} {
		_, err := RunSharded(prog, cost.Log{}, shards)
		if err == nil {
			t.Fatalf("shards=%d: overflow not rejected", shards)
		}
		if err.Error() != refErr.Error() {
			t.Errorf("shards=%d: error %q, want one shard's %q", shards, err, refErr)
		}
	}
}

// TestShardedOverflowFirstInScanOrder sets up simultaneous overflows at
// two processors in different shards; the reported processor must be
// the one a sequential scan in global order (ascending sender, send
// order within sender) hits first.
func TestShardedOverflowFirstInScanOrder(t *testing.T) {
	v := 8
	prog := &Program{
		Name:   "doubleoverflow",
		V:      v,
		Layout: Layout{Data: 1, MaxMsgs: 2},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) {
				// Proc 0 fills inbox 6, proc 3 fills inbox 2; procs 1 and
				// 4 then overflow them. The global scan hits proc 1's
				// message (→ 6) before proc 4's (→ 2), so processor 6 is
				// named even though 2 < 6.
				switch c.ID() {
				case 0:
					c.Send(6, 1)
					c.Send(6, 1)
				case 1:
					c.Send(6, 2)
				case 3:
					c.Send(2, 1)
					c.Send(2, 1)
				case 4:
					c.Send(2, 2)
				}
			}},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
	_, refErr := RunSharded(prog, cost.Log{}, 1)
	if refErr == nil || !strings.Contains(refErr.Error(), "processor 6") {
		t.Fatalf("one-shard error %v, want overflow at processor 6", refErr)
	}
	for _, shards := range []int{2, 4, 8} {
		_, err := RunSharded(prog, cost.Log{}, shards)
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("shards=%d: error %v, want one shard's %q", shards, err, refErr)
		}
	}
}

// TestShardedHandlerErrorLowestProc: when handlers on several shards
// panic, every shard count must report the lowest processor id, like
// the ascending scan at one shard.
func TestShardedHandlerErrorLowestProc(t *testing.T) {
	prog := &Program{
		Name:   "panicky",
		V:      32,
		Layout: Layout{Data: 1, MaxMsgs: 1},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) {
				if c.ID()%5 == 2 { // procs 2, 7, 12, ... panic
					panic("boom")
				}
			}},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
	_, refErr := RunSharded(prog, cost.Log{}, 1)
	if refErr == nil || !strings.Contains(refErr.Error(), "processor 2:") {
		t.Fatalf("one-shard error %v, want processor 2", refErr)
	}
	for _, shards := range []int{4, 32} {
		_, err := RunSharded(prog, cost.Log{}, shards)
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("shards=%d: error %v, want one shard's %q", shards, err, refErr)
		}
	}
}

// TestRunShardedInspected: an inspected run at three shards must expose
// the same trace/StepEvent surface as the one-shard reference —
// identical results, identical message traces and exact registry
// accounting.
func TestRunShardedInspected(t *testing.T) {
	prog := shardProg(32, 6)
	ref, err := RunSharded(prog, cost.Log{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, nTr, err := RunTraced(prog, cost.Log{}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	var events int
	sRes, sTr, err := RunTraced(prog, cost.Log{}, Options{Shards: 3, Obs: o, Inspect: func(e StepEvent) {
		events++
		if len(e.Sent) != len(e.Received) {
			t.Errorf("step %d: %d sent, %d received", e.Step, len(e.Sent), len(e.Received))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, sRes)
	if events != len(sRes.Steps) {
		t.Errorf("inspector saw %d events, want %d", events, len(sRes.Steps))
	}
	if len(nTr.Steps) != len(sTr.Steps) {
		t.Fatalf("trace step counts differ: %d vs %d", len(nTr.Steps), len(sTr.Steps))
	}
	for i := range nTr.Steps {
		n, s := nTr.Steps[i], sTr.Steps[i]
		if len(n.Messages) != len(s.Messages) {
			t.Fatalf("trace step %d: %d vs %d messages", i, len(n.Messages), len(s.Messages))
		}
		for k := range n.Messages {
			if n.Messages[k] != s.Messages[k] {
				t.Fatalf("trace step %d message %d: one shard %+v, three %+v", i, k, n.Messages[k], s.Messages[k])
			}
		}
	}
	if got, want := reg.FloatCounter("dbsp.cost.total").Value(), sRes.Cost; got != want {
		t.Errorf("dbsp.cost.total = %v, want exactly %v", got, want)
	}
}

// TestShardedConcurrencyStress hammers the sharded engine with many
// shards while a scraper goroutine concurrently snapshots the metrics
// registry — the obs-under-load pattern `go test -race` must clear.
func TestShardedConcurrencyStress(t *testing.T) {
	prog := shardProg(512, 24)
	reg := obs.NewRegistry()
	o := obs.New(reg, obs.NewRingSink(64))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				reg.Snapshot()
			}
		}
	}()

	res1, _, err := RunTraced(prog, cost.Poly{Alpha: 0.5}, Options{Shards: 7, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunSharded(prog, cost.Poly{Alpha: 0.5}, 13)
	if err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	requireIdentical(t, res1, res2)
	if got, want := reg.FloatCounter("dbsp.cost.total").Value(), res1.Cost; got != want {
		t.Errorf("dbsp.cost.total = %v, want exactly %v", got, want)
	}
}

// requireFusedError runs prog's first superstep, which must be
// cluster-local at shards 2, 4 and 8, and requires the error at each of
// those counts to be byte-identical to the one-shard error, which must
// contain want.
func requireFusedError(t *testing.T, prog *Program, want string) {
	t.Helper()
	_, refErr := RunSharded(prog, cost.Log{}, 1)
	if refErr == nil || !strings.Contains(refErr.Error(), want) {
		t.Fatalf("one-shard error %v, want one containing %q", refErr, want)
	}
	for _, shards := range []int{2, 4, 8} {
		if chunk := newShardEngine(prog, shards).chunk; chunk%ClusterSize(prog.V, prog.Steps[0].Label) != 0 {
			t.Fatalf("shards=%d: step 0 is not cluster-local (chunk %d)", shards, chunk)
		}
		_, err := RunSharded(prog, cost.Log{}, shards)
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("shards=%d: error %v, want one shard's %q", shards, err, refErr)
		}
	}
}

// pairStepProg is a v = 16 program of two supersteps: first as a
// pair-local (label 3) step, then an empty global step.
func pairStepProg(name string, first func(c *Ctx)) *Program {
	return &Program{
		Name:   name,
		V:      16,
		Layout: Layout{Data: 1, MaxMsgs: 1},
		Steps: []Superstep{
			{Label: 3, Run: first},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
}

// TestShardedFusedOverflowMinSrcIdx: a cluster-local step overflows
// inboxes in two clusters of one shard and in a cluster of a higher
// shard. The fused path must report the overflow with the minimum
// (src, idx), the one the global scan hits first.
func TestShardedFusedOverflowMinSrcIdx(t *testing.T) {
	prog := pairStepProg("fusedoverflow", func(c *Ctx) {
		// In pairs {2,3}, {6,7} and {12,13} both processors target
		// the odd one, whose inbox holds one message.
		switch c.ID() {
		case 2, 3, 6, 7, 12, 13:
			c.Send(c.ID()|1, Word(c.ID()))
		}
	})
	requireFusedError(t, prog, "inbox overflow at processor 3")
}

// TestShardedFusedHandlerErrorOutranksOverflow: shard 0 overflows an
// inbox while a handler at a higher processor panics, in the same shard
// at shards=2 and in a higher one otherwise. The handler error
// outranks the overflow, so the fused path must keep running handlers
// after it stops delivering.
func TestShardedFusedHandlerErrorOutranksOverflow(t *testing.T) {
	prog := pairStepProg("fusedpanic", func(c *Ctx) {
		switch c.ID() {
		case 2, 3:
			c.Send(3, 1)
		case 6:
			panic("boom")
		}
	})
	requireFusedError(t, prog, "processor 6: handler panic: boom")
}

// TestShardedFusedTransposeLaterCluster: a Transpose-declared
// cluster-local step is violated only in later clusters (a wrong
// destination at processor 21, two sends at processor 26). The fused
// path checks each cluster as it finishes and must report processor
// 21; a handler panic at a still higher processor outranks it.
func TestShardedFusedTransposeLaterCluster(t *testing.T) {
	route := &TransposeRoute{M1: 2, M2: 2}
	build := func(panicAt int) *Program {
		return &Program{
			Name:   "fusedtranspose",
			V:      32,
			Layout: Layout{Data: 1, MaxMsgs: 2},
			Steps: []Superstep{
				{Label: 3, Transpose: route, Run: func(c *Ctx) {
					if c.ID() == panicAt {
						panic("late")
					}
					lo := c.ID() &^ 3
					dest := lo + route.Dest(c.ID()-lo)
					switch c.ID() {
					case 21:
						dest = lo
					case 26:
						c.Send(dest, 0)
					}
					c.Send(dest, Word(c.ID()))
				}},
				{Label: 0, Run: func(c *Ctx) {}},
			},
		}
	}
	requireFusedError(t, build(-1), "transpose superstep: processor 21 sent to 20, want 22")
	requireFusedError(t, build(29), "processor 29: handler panic: late")
}
