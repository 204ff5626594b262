package lint

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// graphFor loads files into a temp module, type-checks, and builds the
// call graph plus the interprocedural summaries.
func graphFor(t *testing.T, files map[string]string) (*CallGraph, *Interproc) {
	t.Helper()
	pkgs := loadTemp(t, files)
	TypeCheck(pkgs)
	ip := NewInterproc(pkgs, collectDirectives(pkgs))
	return ip.Graph, ip
}

// nodeByName finds the unique call-graph node with the given function
// name.
func nodeByName(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	var found *FuncNode
	for _, n := range g.order {
		if n.Fn.Name() == name {
			if found != nil {
				t.Fatalf("two nodes named %s", name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node named %s", name)
	}
	return found
}

// edgeTo returns Use's first edge targeting callee, or nil.
func edge(from, to *FuncNode) *CallSite {
	for _, c := range from.Calls {
		if c.Callee == to {
			return c
		}
	}
	return nil
}

func hasKind(s factSet, k SourceKind) bool {
	for _, f := range s {
		if f.kind == k {
			return true
		}
	}
	return false
}

// TestInterprocMutualRecursionSCC: mutually recursive functions form
// one SCC, and the summary fixpoint propagates a source read by one of
// them into both summaries — pong is declared first, so its first scan
// runs before ping's clock fact exists and only the SCC iteration can
// deliver it.
func TestInterprocMutualRecursionSCC(t *testing.T) {
	g, ip := graphFor(t, map[string]string{
		"rec/rec.go": `package rec

import "time"

var epoch time.Time

func pong(n int) float64 {
	return ping(n - 1)
}

func ping(n int) float64 {
	if n <= 0 {
		return time.Since(epoch).Seconds()
	}
	return pong(n - 1)
}
`,
	})
	ping, pong := nodeByName(t, g, "ping"), nodeByName(t, g, "pong")
	var home []*FuncNode
	for _, scc := range g.SCCs {
		for _, n := range scc {
			if n == ping {
				home = scc
			}
		}
	}
	if len(home) != 2 {
		t.Fatalf("ping's SCC has %d members, want 2 (ping+pong)", len(home))
	}
	foundPong := false
	for _, n := range home {
		foundPong = foundPong || n == pong
	}
	if !foundPong {
		t.Fatal("pong not in ping's SCC")
	}
	for _, n := range []*FuncNode{ping, pong} {
		s := ip.Summaries[n.Fn]
		if s == nil {
			t.Fatalf("no summary for %s", n.Fn.Name())
		}
		if !hasKind(s.Results, SrcClock) {
			t.Errorf("%s's result summary lacks the clock fact; the SCC fixpoint did not converge", n.Fn.Name())
		}
	}
}

// TestInterprocMethodValueRefEdge: mentioning a method outside call
// position (a method value) adds a Ref edge — the method may run
// wherever the value flows.
func TestInterprocMethodValueRefEdge(t *testing.T) {
	g, _ := graphFor(t, map[string]string{
		"mv/mv.go": `package mv

type T struct{}

func (T) Handle() {}

func Use(t T) {
	h := t.Handle
	h()
}
`,
	})
	use, handle := nodeByName(t, g, "Use"), nodeByName(t, g, "Handle")
	e := edge(use, handle)
	if e == nil {
		t.Fatal("no edge Use -> Handle for the method value")
	}
	if !e.Ref || e.Call != nil {
		t.Errorf("method-value edge: Ref=%t Call=%v, want a reference edge (Ref=true, Call=nil)", e.Ref, e.Call)
	}
}

// TestInterprocFuncFieldRefEdge: initializing a function-typed struct
// field with a module function adds a Ref edge.
func TestInterprocFuncFieldRefEdge(t *testing.T) {
	g, _ := graphFor(t, map[string]string{
		"ff/ff.go": `package ff

func work() {}

type S struct {
	fn func()
}

func Make() S {
	return S{fn: work}
}
`,
	})
	mk, work := nodeByName(t, g, "Make"), nodeByName(t, g, "work")
	e := edge(mk, work)
	if e == nil {
		t.Fatal("no edge Make -> work for the function-typed field initializer")
	}
	if !e.Ref {
		t.Error("function-field edge not marked Ref")
	}
}

// TestInterprocInterfaceDevirtualization: a call through an interface
// method edges to every module implementation — the sound superset.
func TestInterprocInterfaceDevirtualization(t *testing.T) {
	g, _ := graphFor(t, map[string]string{
		"iface/iface.go": `package iface

type Doer interface {
	Do()
}

type A struct{}

func (A) Do() {}

type B struct{}

func (*B) Do() {}

func Call(d Doer) {
	d.Do()
}
`,
	})
	call := nodeByName(t, g, "Call")
	var targets []string
	for _, c := range call.Calls {
		if c.Ref {
			t.Errorf("devirtualized edge to %s marked Ref; it is a syntactic call", c.Callee.Fn.Name())
		}
		recv := c.Callee.Fn.Type().String()
		targets = append(targets, recv)
	}
	if len(call.Calls) != 2 {
		t.Fatalf("Call has %d edges %v, want 2 (A.Do and (*B).Do)", len(call.Calls), targets)
	}
}

// TestInterprocIgnoreOnCalleeSuppressesCaller: certifying a
// nondeterminism source with //lint:ignore at the read kills every
// caller-side finding the source would induce — the callee certifies
// once, callers inherit.
func TestInterprocIgnoreOnCalleeSuppressesCaller(t *testing.T) {
	files := func(directive string) map[string]string {
		return map[string]string{
			"sup/sup.go": fmt.Sprintf(`package sup

import (
	"fmt"
	"time"
)

var epoch time.Time

func stamp() float64 {
	return time.Since(epoch).Seconds()%s
}

func Report() {
	fmt.Println(stamp())
}
`, directive),
		}
	}

	bare := loadTemp(t, files(""))
	if got := Run(bare, []*Analyzer{DetFlow}); len(got) != 1 {
		t.Fatalf("without the directive: %d detflow findings %v, want 1 at the Report print", len(got), got)
	}

	certified := loadTemp(t, files(" //lint:ignore detflow the stamp is stripped before comparison"))
	if got := Run(certified, []*Analyzer{DetFlow}); len(got) != 0 {
		t.Fatalf("callee-side //lint:ignore did not suppress the caller finding: %v", got)
	}
}

// TestInterprocSeededUnsortedMapJSONL is the seeded-bug check the
// ISSUE names: a JSONL writer fed straight from a map range — the
// shape of the sweep record writer — is flagged statically by detflow,
// while the dynamic differential comparison the repo otherwise relies
// on passes at small map sizes (a 1-entry map emits identical bytes on
// every run, so byte-comparing reruns cannot catch it).
func TestInterprocSeededUnsortedMapJSONL(t *testing.T) {
	pkgs := loadTemp(t, map[string]string{
		"mirror/mirror.go": `package mirror

import (
	"fmt"
	"io"
)

// writeRec mirrors the sweep JSONL record writer.
func writeRec(w io.Writer, config string, cost int) {
	fmt.Fprintf(w, "{\"config\":%q,\"cost\":%d}\n", config, cost)
}

// Dump emits one record per config straight off the map.
func Dump(w io.Writer, costs map[string]int) {
	for k, v := range costs {
		writeRec(w, k, v)
	}
}
`,
	})
	findings := Run(pkgs, []*Analyzer{DetFlow})
	if len(findings) == 0 {
		t.Fatal("detflow missed the unsorted map range feeding the JSONL writer")
	}
	sawOrder := false
	for _, f := range findings {
		sawOrder = sawOrder || strings.Contains(f.Message, "map-iteration order")
	}
	if !sawOrder {
		t.Errorf("no finding cites map-iteration order: %v", findings)
	}

	// The dynamic companion: the exact bug, run differentially at the
	// map size where fuzzing plateaus. One entry means one iteration
	// order, so every rerun byte-matches and the differential gate
	// reports a false pass — which is why the static finding matters.
	emit := func() []byte {
		var b bytes.Buffer
		costs := map[string]int{"E01": 7}
		for k, v := range costs {
			fmt.Fprintf(&b, "{\"config\":%q,\"cost\":%d}\n", k, v)
		}
		return b.Bytes()
	}
	first := emit()
	for i := 0; i < 32; i++ {
		if !bytes.Equal(first, emit()) {
			t.Fatal("1-entry map emitted differing bytes; the premise of the static check is wrong")
		}
	}
}

// TestDirectiveUnknownAnalyzer: a directive naming no analyzer of the
// roster — a typo, or a leftover from a deleted analyzer — is reported
// even when the run is narrowed, because the stale check only audits
// names that ran. A roster name outside the narrowed run stays silent.
func TestDirectiveUnknownAnalyzer(t *testing.T) {
	pkgs := loadTemp(t, map[string]string{
		"internal/u/u.go": `package u

import "time"

var epoch time.Time

func since() time.Duration {
	//lint:ignore detseed leftover from a deleted analyzer
	return time.Since(epoch)
}

//lint:ignore nilguard not in this run, so neither stale nor unknown
func quiet() {}
`,
	})
	findings := Run(pkgs, []*Analyzer{DetFlow})
	if len(findings) != 1 || findings[0].Analyzer != "directive" ||
		findings[0].Pos.Line != 8 || !strings.Contains(findings[0].Message, `unknown analyzer "detseed"`) {
		t.Fatalf("findings %v, want one unknown-analyzer directive finding at line 8", findings)
	}
}
