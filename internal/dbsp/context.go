package dbsp

import (
	"fmt"

	"repro/internal/hmm"
)

// Layout fixes how a processor's µ-word context is arranged. The same
// layout is used by the engine (contexts in Go slices) and by the
// sequential simulators (contexts as µ-word blocks of HMM/BT memory),
// so that a handler's Load/Store/Send/Recv operations have identical
// semantics everywhere. Message buffers are part of the
// context, as the model prescribes ("buffers for incoming and outgoing
// messages are provided as part of the processor's local memory").
//
// Word offsets within a context:
//
//	[0, Data)                    user data region
//	[Data]                       inbox count
//	[Data+1, Data+1+2Q)          inbox entries: (src, payload) pairs
//	[Data+1+2Q]                  outbox count
//	[Data+2+2Q, Data+2+4Q)       outbox entries: (dest, payload) pairs
//
// where Q = MaxMsgs, giving Mu = Data + 4Q + 2.
type Layout struct {
	// Data is the number of user data words.
	Data int
	// MaxMsgs is the per-superstep capacity Q of both inbox and
	// outbox. The model requires h <= µ; the layout enforces Q
	// structurally.
	MaxMsgs int
}

// Mu returns the context size in words.
func (l Layout) Mu() int { return l.Data + 4*l.MaxMsgs + 2 }

// InCountOff returns the offset of the inbox count word.
func (l Layout) InCountOff() int { return l.Data }

// InboxOff returns the offset of inbox entry k (its src word; payload at +1).
func (l Layout) InboxOff(k int) int { return l.Data + 1 + 2*k }

// OutCountOff returns the offset of the outbox count word.
func (l Layout) OutCountOff() int { return l.Data + 1 + 2*l.MaxMsgs }

// OutboxOff returns the offset of outbox entry k.
func (l Layout) OutboxOff(k int) int { return l.Data + 2 + 2*l.MaxMsgs + 2*k }

// Validate checks the layout bounds.
func (l Layout) Validate() error {
	if l.Data < 0 {
		return fmt.Errorf("dbsp: negative data region %d", l.Data)
	}
	if l.MaxMsgs < 0 {
		return fmt.Errorf("dbsp: negative message capacity %d", l.MaxMsgs)
	}
	return nil
}

// Ctx is the view a superstep handler has of its processor: local
// memory plus message primitives. Handlers must be deterministic
// functions of the context contents — the sequential simulators
// re-execute them processor by processor in cluster-schedule order.
//
// A Ctx is backed either by a Go slice (the engine: mem, with τ, the
// local computation time, counted in ops at one per word access and n
// per Work) or by host HMM memory (the simulators: the µ words at base
// in m, charged by the machine itself).
//
// A handler may use its *Ctx only until it returns. Every engine and
// simulator reuses one Ctx for all the processors it runs in turn (one
// per shard task or simulation), so a retained pointer would later
// read and write another processor's context. The stepconfine analyzer
// rejects the common form of retention, a Run closure assigning c to
// a captured variable.
type Ctx struct {
	mem    []Word       // engine context (m == nil)
	ops    int64        // engine τ counter
	m      *hmm.Machine // simulator host memory (nil on the engine)
	base   int64        // address of the context in m
	layout Layout
	id     int // processor id
	v      int // machine size
	label  int // current superstep label, for send validation
}

// NewCtx returns a handler view over host HMM memory m (a BT host
// passes its embedded HMM), the hook the sequential simulators use to
// execute guest handlers against contexts living in simulated
// hierarchical memory. A simulator builds one Ctx per run and binds it
// to each processor in turn with Bind; the handler lifetime rule on Ctx
// is what makes the reuse sound.
func NewCtx(m *hmm.Machine, layout Layout, v int) *Ctx {
	return &Ctx{m: m, layout: layout, v: v}
}

// Bind points c at the context of processor id, the µ words at address
// base of m, executing a label superstep.
func (c *Ctx) Bind(m *hmm.Machine, base int64, id, label int) {
	c.m, c.base, c.id, c.label = m, base, id, label
}

// load returns context word off, charging one op on the engine and a
// read on a simulator host.
func (c *Ctx) load(off int) Word {
	if c.m == nil {
		c.ops++
		return c.mem[off]
	}
	return c.m.Read(c.base + int64(off))
}

// put sets context word off, charging one op on the engine and a write
// on a simulator host.
//
// The if/else form (no early return) keeps put within the compiler's
// inlining budget; CI checks that both accessors still inline.
func (c *Ctx) put(off int, v Word) {
	if c.m == nil {
		c.ops++
		c.mem[off] = v
	} else {
		c.m.Write(c.base+int64(off), v)
	}
}

// ID returns the processor id in [0, V).
func (c *Ctx) ID() int { return c.id }

// V returns the machine size.
func (c *Ctx) V() int { return c.v }

// Label returns the current superstep's cluster label.
func (c *Ctx) Label() int { return c.label }

// Load returns data word i.
func (c *Ctx) Load(i int) Word {
	if i < 0 || i >= c.layout.Data {
		panic(fmt.Sprintf("dbsp: proc %d: Load(%d) outside data region [0,%d)", c.id, i, c.layout.Data))
	}
	return c.load(i)
}

// Store sets data word i to val.
func (c *Ctx) Store(i int, val Word) {
	if i < 0 || i >= c.layout.Data {
		panic(fmt.Sprintf("dbsp: proc %d: Store(%d) outside data region [0,%d)", c.id, i, c.layout.Data))
	}
	c.put(i, val)
}

// Work charges n extra units of local computation beyond the memory
// operations already counted.
func (c *Ctx) Work(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("dbsp: proc %d: negative work %d", c.id, n))
	}
	if c.m == nil {
		c.ops += n
		return
	}
	c.m.ChargeOps(n)
}

// Send queues a constant-size message to processor dest, which must lie
// in the sender's current cluster (an i-superstep may only communicate
// within i-clusters). It panics on cluster violations and outbox
// overflow — both are bugs in the program, not runtime conditions.
func (c *Ctx) Send(dest int, payload Word) {
	if dest < 0 || dest >= c.v {
		panic(fmt.Sprintf("dbsp: proc %d: Send to invalid processor %d", c.id, dest))
	}
	if !SameCluster(c.v, c.label, c.id, dest) {
		panic(fmt.Sprintf("dbsp: proc %d: Send to %d crosses %d-cluster boundary", c.id, dest, c.label))
	}
	n := int(c.load(c.layout.OutCountOff()))
	if n >= c.layout.MaxMsgs {
		panic(fmt.Sprintf("dbsp: proc %d: outbox overflow (MaxMsgs=%d)", c.id, c.layout.MaxMsgs))
	}
	c.put(c.layout.OutboxOff(n), Word(dest))
	c.put(c.layout.OutboxOff(n)+1, payload)
	c.put(c.layout.OutCountOff(), Word(n+1))
}

// NumRecv returns the number of messages delivered by the previous
// superstep.
func (c *Ctx) NumRecv() int { return int(c.load(c.layout.InCountOff())) }

// Recv returns received message k: its sender and payload. Messages are
// ordered by ascending sender id (and send order within a sender) —
// identical in the engine and in every simulator.
func (c *Ctx) Recv(k int) (src int, payload Word) {
	n := c.NumRecv()
	if k < 0 || k >= n {
		panic(fmt.Sprintf("dbsp: proc %d: Recv(%d) with %d messages", c.id, k, n))
	}
	return int(c.load(c.layout.InboxOff(k))), c.load(c.layout.InboxOff(k) + 1)
}
