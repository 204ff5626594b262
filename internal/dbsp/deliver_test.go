package dbsp

import (
	"slices"
	"testing"

	"repro/internal/cost"
)

// send is one message a test handler queues: destination and payload.
type send struct {
	dest    int
	payload Word
}

// sendProg builds a v-processor program of global supersteps in which
// processor p sends steps[s][p] in superstep s, in order.
func sendProg(v, maxMsgs int, steps [][][]send) *Program {
	prog := &Program{Name: "deliver", V: v, Layout: Layout{Data: 1, MaxMsgs: maxMsgs}}
	for _, sends := range steps {
		prog.Steps = append(prog.Steps, Superstep{Label: 0, Run: func(c *Ctx) {
			if c.ID() < len(sends) {
				for _, m := range sends[c.ID()] {
					c.Send(m.dest, m.payload)
				}
			}
		}})
	}
	return prog
}

// inbox reads back processor p's inbox as delivered (src, payload)
// pairs.
func inbox(l Layout, ctxs [][]Word, p int) []send {
	n := int(ctxs[p][l.InCountOff()])
	out := make([]send, n)
	for k := 0; k < n; k++ {
		out[k] = send{int(ctxs[p][l.InboxOff(k)]), ctxs[p][l.InboxOff(k)+1]}
	}
	return out
}

// TestDeliverEdgeCases pins the exact h-relation and buffer semantics
// of the superstep boundary at one shard, two and v: h is the max (not
// the sum) of per-processor sent and received counts, inboxes are
// filled in ascending sender order with send order preserved within a
// sender, overflow trips at exactly MaxMsgs+1 and names the processor
// and capacity, and a zero-message superstep clears stale inboxes.
func TestDeliverEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		v       int
		maxMsgs int
		steps   [][][]send
		wantH   []int          // per superstep
		inboxes map[int][]send // final inboxes, checked per listed processor
		wantErr string
	}{
		{
			name:    "h is max sent when fan-out dominates",
			v:       4,
			maxMsgs: 4,
			// Proc 0 sends 3 messages to distinct destinations; every
			// receiver gets 1. h = max(3, 1) = 3, not the total 3+0.
			steps: [][][]send{{{{1, 10}, {2, 20}, {3, 30}}}},
			wantH: []int{3},
			inboxes: map[int][]send{
				0: {},
				1: {{0, 10}},
				2: {{0, 20}},
				3: {{0, 30}},
			},
		},
		{
			name:    "h is max received when fan-in dominates",
			v:       4,
			maxMsgs: 4,
			// Three processors each send 1 message to proc 0.
			// h = max(1, 3) = 3, not the sum 3+3.
			steps: [][][]send{{nil, {{0, 11}}, {{0, 22}}, {{0, 33}}}},
			wantH: []int{3},
			inboxes: map[int][]send{
				0: {{1, 11}, {2, 22}, {3, 33}},
			},
		},
		{
			name:    "h never sums sent and received",
			v:       2,
			maxMsgs: 4,
			// A full exchange: each side sends 2 and receives 2.
			// h = max(2, 2) = 2, not 4.
			steps: [][][]send{{{{1, 1}, {1, 2}}, {{0, 3}, {0, 4}}}},
			wantH: []int{2},
			inboxes: map[int][]send{
				0: {{1, 3}, {1, 4}},
				1: {{0, 1}, {0, 2}},
			},
		},
		{
			name:    "ascending sender order, send order kept within sender",
			v:       4,
			maxMsgs: 4,
			// Senders are visited 0,1,2,... and a sender's own messages
			// keep their send order, so proc 3's inbox must read
			// 0,0,1,2 — across a shard boundary at two shards and
			// from three other shards at v.
			steps: [][][]send{{
				{{3, 100}, {3, 101}},
				{{3, 200}},
				{{3, 300}},
			}},
			wantH: []int{4},
			inboxes: map[int][]send{
				3: {{0, 100}, {0, 101}, {1, 200}, {2, 300}},
			},
		},
		{
			name:    "inbox fills to exactly MaxMsgs without overflow",
			v:       4,
			maxMsgs: 4,
			// Proc 0 receives MaxMsgs = 4 messages: full, legal.
			steps: [][][]send{{nil, {{0, 1}, {0, 2}}, {{0, 3}, {0, 4}}}},
			wantH: []int{4},
			inboxes: map[int][]send{
				0: {{1, 1}, {1, 2}, {2, 3}, {2, 4}},
			},
		},
		{
			name:    "zero-message superstep",
			v:       4,
			maxMsgs: 4,
			steps:   [][][]send{nil},
			wantH:   []int{0},
			inboxes: map[int][]send{
				0: {}, 1: {}, 2: {}, 3: {},
			},
		},
		{
			name:    "overflow one past MaxMsgs names processor and capacity",
			v:       4,
			maxMsgs: 2,
			// Procs 1 and 2 send 2 each to proc 0: the third delivery
			// hits n >= MaxMsgs.
			steps:   [][][]send{{nil, {{0, 1}, {0, 2}}, {{0, 3}, {0, 4}}}},
			wantErr: `dbsp: program "deliver" superstep 0: inbox overflow at processor 0 (MaxMsgs=2)`,
		},
		{
			name:    "zero-message superstep clears stale inbox",
			v:       2,
			maxMsgs: 3,
			// Proc 1's inbox holds two messages after superstep 0; a
			// superstep with no messages must wipe them, so handlers
			// never observe last round's traffic.
			steps:   [][][]send{{{{1, 99}, {1, 98}}}, nil},
			wantH:   []int{2, 0},
			inboxes: map[int][]send{0: {}, 1: {}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := sendProg(tc.v, tc.maxMsgs, tc.steps)
			l := prog.Layout
			for _, shards := range slices.Compact([]int{1, 2, tc.v}) {
				res, err := RunSharded(prog, cost.Log{}, shards)
				if tc.wantErr != "" {
					if err == nil || err.Error() != tc.wantErr {
						t.Errorf("shards=%d: error %v, want %q", shards, err, tc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				for s, want := range tc.wantH {
					if got := res.Steps[s].H; got != want {
						t.Errorf("shards=%d step %d: h = %d, want %d", shards, s, got, want)
					}
				}
				for p, want := range tc.inboxes {
					if got := inbox(l, res.Contexts, p); !slices.Equal(got, want) {
						t.Errorf("shards=%d proc %d inbox = %v, want %v", shards, p, got, want)
					}
				}
				for p, ctx := range res.Contexts {
					if n := ctx[l.OutCountOff()]; n != 0 {
						t.Errorf("shards=%d proc %d outbox not cleared (count %d)", shards, p, n)
					}
				}
			}
		})
	}
}
