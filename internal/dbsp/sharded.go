package dbsp

import (
	"fmt"
	"runtime"
	"sync"
)

// The engine executes D-BSP semantics at any v (2^20 processors and
// beyond): processors are lightweight contexts multiplexed over a small
// number of shards, each shard owning a contiguous range of processor
// ids backed by its own arena — the paper's Brent-lemma analogue
// (Theorem 10), one i-cluster at a time on fewer workers. A superstep
// follows the cluster structure of its label, as the paper's
// simulations do. When every cluster lies inside one shard
// (cluster-local), each shard runs its clusters one at a time —
// handlers, Transpose check, delivery — while the cluster's contexts
// are still in cache, and the step takes one barrier. Otherwise each
// shard runs its handlers and buckets the messages that leave it behind
// one barrier, and delivers behind a second. τ, h and errors accumulate
// shard-locally instead of in per-processor slices.
//
// Results are identical at every shard count by construction, not by
// tolerance: τ is a max over per-processor int64 ops (order
// independent), h is a max over per-processor int sent/received counts
// (order independent), every inbox fills in the global scan order
// (ascending sender, send order within a sender — the order the
// sequential simulators deliver in), and errors keep one precedence —
// handler error, then Transpose violation, then inbox overflow — each
// reduced across shards to the one an ascending scan finds first. The
// only floating-point arithmetic — the cost fold
// sc.Cost = float64(Tau) + float64(H)·g(µ·v/2^i) accumulated in step
// order — lives in engineLoop, shared by every shard count. Runs that
// agree on every integer therefore agree on every charged float64, bit
// for bit. The differential fuzz test in internal/core enforces this
// against one shard and the three simulators.

// shardCount resolves a requested shard count for a v-processor run:
// values <= 0 select GOMAXPROCS (the default), and the result is
// clamped to [1, v] so shards > v degrades to one processor per shard
// rather than empty shards.
func shardCount(shards, v int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > v {
		shards = v
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// newContextsChunked allocates the v contexts of prog in arenas of at
// most chunk contexts each and applies Init in ascending processor
// order — the exact initial state NewContexts produces, carved from
// per-chunk backing slices instead of one flat v·µ slab. At v = 2^20 a
// single slab is a multi-hundred-megabyte allocation the Go heap must
// find contiguously; per-shard arenas keep each allocation proportional
// to v/shards.
func newContextsChunked(prog *Program, chunk int) [][]Word {
	mu := prog.Mu()
	v := prog.V
	ctxs := make([][]Word, v)
	for lo := 0; lo < v; lo += chunk {
		hi := min(lo+chunk, v)
		arena := make([]Word, (hi-lo)*mu)
		for p := lo; p < hi; p++ {
			off := (p - lo) * mu
			ctxs[p] = arena[off : off+mu : off+mu]
			if prog.Init != nil {
				prog.Init(p, ctxs[p][:prog.Layout.Data])
			}
		}
	}
	return ctxs
}

// overflow records the first (lowest sender, lowest send index) inbox
// overflow a shard observed during delivery.
type overflow struct {
	ok             bool
	src, idx, dest int
}

// shardResult is what one shard reports to the reduction after a
// barrier: its τ (max ops over its processors), its first handler error
// and the processor that raised it, its first Transpose violation
// (cluster-local steps only), the max messages one of its processors
// sent and received, and its first inbox overflow. They take the place
// of per-processor slices — O(shards), not O(v). A task
// accumulates in locals and writes its slot once, so the hot loops
// touch no shared memory.
type shardResult struct {
	tau        int64
	errProc    int
	err, terr  error
	sent, recv int
	ovf        overflow
}

// shardEngine is the per-run state of an execution: the context
// arenas plus shard-local accumulators reused across supersteps. Shard
// s owns processors [s·chunk, min((s+1)·chunk, v)).
type shardEngine struct {
	prog   *Program
	ctxs   [][]Word
	chunk  int // processors per shard (last shard may be short)
	shards int // effective shard count: ceil(V/chunk)
	res    []shardResult

	// out[s][d] is shard s's outgoing bucket for destination shard
	// d != s: flat (src, idx, dest, payload) records in ascending
	// (src, idx) order, reused across supersteps via [:0]. idx is the
	// message's send index within its sender's outbox — with src it
	// ranks messages in the global scan order, which is what makes
	// cross-shard overflow reporting exact.
	// Messages that stay inside their shard never enter a bucket.
	out [][][]Word
}

func newShardEngine(prog *Program, shards int) *shardEngine {
	shards = shardCount(shards, prog.V)
	chunk := (prog.V + shards - 1) / shards
	shards = (prog.V + chunk - 1) / chunk // drop shards the rounding left empty
	e := &shardEngine{
		prog:   prog,
		ctxs:   newContextsChunked(prog, chunk),
		chunk:  chunk,
		shards: shards,
		res:    make([]shardResult, shards),
		out:    make([][][]Word, shards),
	}
	for s := range e.out {
		e.out[s] = make([][]Word, shards)
	}
	return e
}

// span returns shard s's processor range [lo, hi).
func (e *shardEngine) span(s int) (lo, hi int) {
	lo = s * e.chunk
	hi = min(lo+e.chunk, e.prog.V)
	return lo, hi
}

// parallel runs fn once per shard and barriers. Shard 0 runs on the
// calling goroutine, and one shard runs inline with no goroutine and no
// barrier at all.
func (e *shardEngine) parallel(fn func(s int)) {
	if e.shards == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for s := 1; s < e.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	fn(0)
	wg.Wait()
}

// runStep executes one superstep. A cluster-local step without a
// pre-delivery hook runs fused, cluster by cluster, behind one barrier.
// Any other step runs each shard's handlers and exchange phase A behind
// one barrier, then the Transpose check and the hook, then phase B
// behind a second. Phase A only reads the outboxes, so the check and
// the hook see them exactly as the handlers left them. Either way the
// errors reduce in one precedence: handler error, Transpose violation,
// inbox overflow.
func (e *shardEngine) runStep(st Superstep, collect func(), verify bool) (StepCost, error) {
	sc := StepCost{Label: st.Label}
	if st.Run == nil {
		return sc, nil // dummy superstep: no computation, no messages
	}
	verify = verify && st.Transpose != nil
	// Shards start at multiples of chunk and clusters at multiples of
	// their power-of-two size, so this holds exactly when no cluster
	// straddles a shard boundary.
	local := e.chunk%ClusterSize(e.prog.V, st.Label) == 0
	if local && collect == nil {
		e.parallel(func(s int) { e.runClusters(s, st, verify) })
		if err := e.handlerError(&sc); err != nil {
			return sc, err
		}
		for _, r := range e.res {
			if r.terr != nil {
				// Each shard checks its clusters in ascending order and
				// stops at the first violation, so the lowest shard's
				// holds the lowest violating processor.
				return sc, r.terr
			}
		}
	} else {
		e.parallel(func(s int) {
			lo, hi := e.span(s)
			c := e.newCtx(st.Label)
			defer recoverHandler(c, &e.res[s])
			e.res[s] = shardResult{tau: e.runHandlers(c, st, lo, hi)}
			if !local {
				e.collectShard(s)
			}
		})
		if err := e.handlerError(&sc); err != nil {
			return sc, err
		}
		if verify {
			if err := verifyTranspose(e.prog, e.ctxs, st, 0, e.prog.V); err != nil {
				return sc, err
			}
		}
		if collect != nil {
			collect()
		}
		e.parallel(func(s int) { e.deliverShard(s, !local) })
	}
	h, err := e.delivered()
	if err != nil {
		return sc, err
	}
	sc.H = h
	return sc, nil
}

// newCtx returns the handler view of one shard task for a label
// superstep, bound to no processor. A task allocates its own Ctx and
// never shares it: ops is written on every Load and Put, so views
// packed side by side in one slice would false-share cache lines
// across shards.
func (e *shardEngine) newCtx(label int) *Ctx {
	return &Ctx{layout: e.prog.Layout, id: -1, v: e.prog.V, label: label}
}

// runHandlers runs the handlers of processors [lo, hi) in ascending
// order on c and returns the max of their ops. While a handler runs,
// c.id names its processor; between runs it is -1, which is how
// recoverHandler tells a handler panic from an engine one. A handler
// is the only reader of its inbox, so the inbox is cleared as soon as
// the handler returns, while the context is still in cache; delivery
// then needs no clearing pass of its own.
func (e *shardEngine) runHandlers(c *Ctx, st Superstep, lo, hi int) (tau int64) {
	in := e.prog.Layout.InCountOff()
	for p := lo; p < hi; p++ {
		c.mem, c.ops, c.id = e.ctxs[p], 0, p
		st.Run(c)
		c.id = -1
		e.ctxs[p][in] = 0
		tau = max(tau, c.ops)
	}
	return tau
}

// recoverHandler is deferred once per shard task. It turns a panic
// raised by the handler c is running — a model violation Ctx reports
// by panicking, or a bug in the handler — into the task's handler
// error, recorded in its result slot r. A panic raised while no
// handler runs comes from the engine itself and is re-raised.
func recoverHandler(c *Ctx, r *shardResult) {
	x := recover()
	if x == nil {
		return
	}
	if c.id < 0 {
		panic(x) //lint:ignore panicmsg an engine panic is re-raised unchanged, keeping its runtime error and message
	}
	*r = shardResult{errProc: c.id, err: fmt.Errorf("handler panic: %v", x)}
}

// runClusters is the fused cluster-local superstep for shard s. It
// walks the shard's clusters in ascending order and finishes each one
// — handlers, Transpose check, delivery — before it starts the next,
// so a cluster that fits in cache is read from memory about once per
// superstep. Clusters are independent submachines: a handler reads
// only its own context and sends only inside its cluster, so
// delivering a cluster before the next one runs changes nothing any
// handler sees.
//
// A Transpose violation or an inbox overflow stops delivery, but the
// handlers keep running, because a handler error at a later processor
// outranks both. A cluster that passed the Transpose check cannot
// overflow (every processor receives exactly one message), so the
// violation, which outranks an overflow, is never hidden behind one.
func (e *shardEngine) runClusters(s int, st Superstep, verify bool) {
	lo, hi := e.span(s)
	cs := ClusterSize(e.prog.V, st.Label)
	c := e.newCtx(st.Label)
	defer recoverHandler(c, &e.res[s])
	dl := deliverer{l: e.prog.Layout, ctxs: e.ctxs}
	var r shardResult
	stopped := false
	for clo := lo; clo < hi; clo += cs {
		chi := clo + cs
		r.tau = max(r.tau, e.runHandlers(c, st, clo, chi))
		if stopped {
			continue
		}
		if verify {
			if r.terr = verifyTranspose(e.prog, e.ctxs, st, clo, chi); r.terr != nil {
				stopped = true
				continue
			}
		}
		stopped = !dl.deliverOwn(clo, chi)
	}
	r.sent, r.recv, r.ovf = dl.sent, dl.recv, dl.ovf
	e.res[s] = r
}

// collectShard is exchange phase A for shard s, run in the shard's
// handler task right after its handlers: copy every message whose
// destination lies in another shard into the bucket for that shard.
// It reads only the shard's own outboxes and leaves them in place;
// phase B delivers the messages that stay inside the shard straight
// from them and clears them.
func (e *shardEngine) collectShard(s int) {
	l := e.prog.Layout
	lo, hi := e.span(s)
	buckets := e.out[s]
	for d := range buckets {
		buckets[d] = buckets[d][:0]
	}
	for p := lo; p < hi; p++ {
		ctx := e.ctxs[p]
		sent := int(ctx[l.OutCountOff()])
		for k := 0; k < sent; k++ {
			if dest := int(ctx[l.OutboxOff(k)]); dest < lo || dest >= hi {
				d := dest / e.chunk
				buckets[d] = append(buckets[d], Word(p), Word(k), Word(dest), ctx[l.OutboxOff(k)+1])
			}
		}
	}
}

// deliverShard is exchange phase B for shard s: deliver the buckets of
// lower shards, the shard's own outboxes and the buckets of higher
// shards, in that order, into the inboxes runHandlers emptied. Each part
// is in ascending (src, idx) order and the parts cover ascending
// sender ranges, so the stream is the global scan order restricted to
// this shard's processors. cross is false when phase A was skipped
// because no cluster of the step spans shards; the buckets are then
// stale and not read. On the first overflow the shard records the
// offender and stops; delivered picks the global first.
func (e *shardEngine) deliverShard(s int, cross bool) {
	lo, hi := e.span(s)
	dl := deliverer{l: e.prog.Layout, ctxs: e.ctxs}
	ok := true
	if cross {
		for src := 0; src < s && ok; src++ {
			ok = dl.deliverBucket(e.out[src][s])
		}
	}
	ok = ok && dl.deliverOwn(lo, hi)
	if cross {
		for src := s + 1; src < e.shards && ok; src++ {
			ok = dl.deliverBucket(e.out[src][s])
		}
	}
	r := &e.res[s]
	r.sent, r.recv, r.ovf = dl.sent, dl.recv, dl.ovf
}

// handlerError folds the shards' τ into sc and returns the handler
// error of the lowest erroring processor, if any. Ascending shards own
// ascending processor ranges and each shard stops at its first error,
// so the first erroring shard holds the lowest erroring processor.
func (e *shardEngine) handlerError(sc *StepCost) error {
	for _, r := range e.res {
		if r.err != nil {
			return fmt.Errorf("processor %d: %w", r.errProc, r.err)
		}
		sc.Tau = max(sc.Tau, r.tau)
	}
	return nil
}

// delivered reduces the shards' delivery results to the step's h, or
// to the overflow a sequential scan in global order hits first.
func (e *shardEngine) delivered() (h int, err error) {
	first := overflow{}
	for _, r := range e.res {
		h = max(h, r.sent, r.recv)
		if o := r.ovf; o.ok && (!first.ok || o.src < first.src || (o.src == first.src && o.idx < first.idx)) {
			first = o
		}
	}
	if first.ok {
		// Whether a message overflows depends only on how many earlier
		// messages (in the global scan order) target the same
		// processor — never on messages to other processors — so the
		// minimal-(src, idx) overflow across shards is precisely the
		// one a sequential scan in global order hits first.
		return 0, fmt.Errorf("inbox overflow at processor %d (MaxMsgs=%d)", first.dest, e.prog.Layout.MaxMsgs)
	}
	return h, nil
}

// deliverer is one shard task's delivery state: it writes only the
// inboxes it delivers into and the outboxes it drains, and folds the
// max sent and received counts and the first overflow in its own
// fields, which the task copies to its result slot at the end.
type deliverer struct {
	l          Layout
	ctxs       [][]Word
	sent, recv int
	ovf        overflow
}

// push appends message idx of src to dest's inbox. It reports false,
// and records the message, when the inbox is already full.
func (d *deliverer) push(src, idx, dest int, payload Word) bool {
	ctx := d.ctxs[dest]
	n := int(ctx[d.l.InCountOff()])
	if n >= d.l.MaxMsgs {
		d.ovf = overflow{ok: true, src: src, idx: idx, dest: dest}
		return false
	}
	ctx[d.l.InboxOff(n)] = Word(src)
	ctx[d.l.InboxOff(n)+1] = payload
	ctx[d.l.InCountOff()] = Word(n + 1)
	d.recv = max(d.recv, n+1)
	return true
}

// deliverOwn delivers, in ascending (src, idx) order, the messages that
// processors [lo, hi) sent to processors in [lo, hi), and clears the
// senders' outboxes. Messages to other processors are skipped: phase A
// has bucketed them. It reports false at the first overflow.
func (d *deliverer) deliverOwn(lo, hi int) bool {
	l := d.l
	for p := lo; p < hi; p++ {
		ctx := d.ctxs[p]
		sent := int(ctx[l.OutCountOff()])
		d.sent = max(d.sent, sent)
		for k := 0; k < sent; k++ {
			dest := int(ctx[l.OutboxOff(k)])
			if dest >= lo && dest < hi && !d.push(p, k, dest, ctx[l.OutboxOff(k)+1]) {
				return false
			}
		}
		ctx[l.OutCountOff()] = 0
	}
	return true
}

// deliverBucket delivers a bucket's (src, idx, dest, payload) records
// in order. It reports false at the first overflow.
func (d *deliverer) deliverBucket(rec []Word) bool {
	for i := 0; i < len(rec); i += 4 {
		if !d.push(int(rec[i]), int(rec[i+1]), int(rec[i+2]), rec[i+3]) {
			return false
		}
	}
	return true
}
