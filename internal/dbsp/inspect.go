package dbsp

import (
	"repro/internal/cost"
	"repro/internal/obs"
)

// Options configures a RunTraced run. The zero value runs at the
// default shard count with no observer and no inspector.
type Options struct {
	// Shards is the shard count: <= 0 selects GOMAXPROCS, and counts
	// above v clamp to v.
	Shards int
	// Obs, when non-nil, receives the run's accounting: the per-label
	// superstep histogram (dbsp.lambda.label.<i> — the λ_i of the
	// Theorem 5/12 formulas), message volume, h-relation degrees, the
	// computation/communication cost split, and one "superstep" trace
	// event per executed superstep.
	Obs *obs.Observer
	// Inspect, when non-nil, receives every executed superstep right
	// after message delivery. The engine's own Transpose verification
	// is then disabled, so the inspector observes declaration
	// violations end to end instead of the run aborting first — the
	// runtime invariant checker (internal/invariant) builds on this.
	Inspect func(StepEvent)
}

// StepEvent is the post-delivery view of one executed superstep that
// RunTraced hands to Options.Inspect: the superstep's identity, its
// Transpose declaration (if any), the messages the handlers queued
// before delivery and the messages actually delivered. Dummy
// supersteps (nil Run) carry no traffic and produce no event.
type StepEvent struct {
	// Step is the superstep index in Program.Steps; Label its cluster
	// granularity.
	Step, Label int
	// Transpose is the superstep's declaration, nil for ordinary
	// supersteps.
	Transpose *TransposeRoute
	// Sent snapshots the outboxes before delivery, in delivery order
	// (ascending sender, send order preserved within a sender).
	Sent []MessageTrace
	// Received lists the inbox contents after delivery, in ascending
	// receiver order.
	Received []MessageTrace
}

// RunTraced executes prog like RunSharded at opt.Shards while recording
// every routed message, publishing the run's accounting to opt.Obs and
// handing every executed superstep to opt.Inspect (see Options). The
// trace snapshot is O(messages) per superstep — at very large v prefer
// RunSharded unless the trace is needed.
func RunTraced(prog *Program, g cost.Func, opt Options) (*Result, *Trace, error) {
	tr := &Trace{V: prog.V}
	var sent []MessageTrace
	pre := func(step, label int, msgs []MessageTrace) {
		tr.Steps = append(tr.Steps, StepTrace{Index: step, Label: label, Messages: msgs})
		sent = msgs
	}
	var post func(step int, st Superstep, ctxs [][]Word)
	if inspect := opt.Inspect; inspect != nil {
		post = func(step int, st Superstep, ctxs [][]Word) {
			inspect(StepEvent{Step: step, Label: st.Label, Transpose: st.Transpose,
				Sent: sent, Received: collectInboxes(prog.Layout, ctxs)})
			sent = nil
		}
	}
	res, err := engineLoop(prog, g, opt.Shards, pre, post)
	if err != nil {
		return nil, nil, err
	}
	if opt.Obs != nil {
		publishRun(opt.Obs, prog, res, tr)
	}
	return res, tr, nil
}

// collectInboxes snapshots every delivered message in ascending
// receiver order.
func collectInboxes(l Layout, ctxs [][]Word) []MessageTrace {
	var msgs []MessageTrace
	for p, ctx := range ctxs {
		n := int(ctx[l.InCountOff()])
		for k := 0; k < n; k++ {
			msgs = append(msgs, MessageTrace{
				Src:     int(ctx[l.InboxOff(k)]),
				Dest:    p,
				Payload: ctx[l.InboxOff(k)+1],
			})
		}
	}
	return msgs
}
