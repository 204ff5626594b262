package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// opsBytes is the byte form of the first n ops of every client.
func opsBytes(seed uint64, n int) []byte {
	var all [][]dbspdOp
	for c := 0; c < 2; c++ {
		g := newOpGen(seed, c)
		ops := make([]dbspdOp, n)
		for i := range ops {
			ops[i] = g.next()
		}
		all = append(all, ops)
	}
	b, _ := json.Marshal(all)
	return b
}

// sweepInputs is what the paper sweep feeds each experiment: its seed,
// derived from the base seed.
func sweepInputs(seed uint64) []byte {
	var b bytes.Buffer
	for _, j := range experiments.Jobs() {
		fmt.Fprintf(&b, "%s=%d\n", j.ID, sweep.SeedFor(seed, j.ID))
	}
	return b.Bytes()
}

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	gens := map[string]func(uint64) []byte{
		"paper-sweep": sweepInputs,
		"engines":     func(s uint64) []byte { return encodeSpecs(engineSpecs(s)) },
		"dbspd-mix":   func(s uint64) []byte { return opsBytes(s, 200) },
	}
	for name, gen := range gens {
		if !bytes.Equal(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated two different input lists", name)
		}
		if bytes.Equal(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same input list", name)
		}
	}
}

func TestDbspdOpsFollowTheMix(t *testing.T) {
	// Ten deal cycles of specs, one miss in missEvery ops.
	sets := 0
	for _, cuts := range dealCuts {
		sets += len(cuts)
	}
	cycles := 10
	g := newOpGen(3, 0)
	misses := 0
	uses := map[string]int{}
	for i := 0; i < cycles*sets*missEvery; i++ {
		op := g.next()
		if op.Miss != (i%missEvery == 0) {
			t.Fatalf("op %d: miss=%t", i, op.Miss)
		}
		if op.Miss {
			misses++
			seen := map[string]bool{}
			for _, id := range op.Spec.IDs {
				if seen[id] {
					t.Fatalf("op %d names %s twice: %v", i, id, op.Spec.IDs)
				}
				seen[id] = true
				uses[id]++
			}
		}
		if op.Resume > len(op.Spec.IDs) {
			t.Fatalf("op %d resumes at line %d of %d", i, op.Resume, len(op.Spec.IDs))
		}
	}
	if misses != cycles*sets {
		t.Fatalf("%d misses, want %d", misses, cycles*sets)
	}
	// Each cycle uses every pool experiment once per row of dealCuts.
	for _, id := range dbspdPool {
		if want := cycles * len(dealCuts); uses[id] != want {
			t.Errorf("%s in %d specs, want %d: %v", id, uses[id], want, uses)
		}
	}
}

func TestEnginesCheckCatchesAFlippedContextWord(t *testing.T) {
	for _, s := range engineSpecs(1) {
		if s.Kind != "sort" {
			continue
		}
		prog, check := build(s)
		native, err := runPath("native", prog, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(native.ctxs); err != nil {
			t.Fatalf("unaltered sort output: %v", err)
		}
		sharded, err := runPath("sharded1", prog, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAgainst("sharded1", native, sharded); err != nil {
			t.Fatalf("unaltered runs disagree: %v", err)
		}

		sharded.ctxs[17][0] ^= 1
		sharded.digest = digest(sharded.ctxs)
		if err := checkAgainst("sharded1", native, sharded); err == nil {
			t.Error("a flipped context word passed the cross-path check")
		}
		if err := check(sharded.ctxs); err == nil {
			t.Error("a flipped output word passed the sorted-order check")
		}
		sharded.ctxs[17][0] ^= 1
		sharded.digest = digest(sharded.ctxs)
		sharded.steps[1].Tau++
		if err := checkAgainst("sharded1", native, sharded); err == nil {
			t.Error("an altered step τ passed the per-step check")
		}
		return
	}
	t.Fatal("no sort program in the engines set")
}

// smallSweep runs two cheap experiments in quick mode.
func smallSweep(t *testing.T) []sweep.Outcome {
	t.Helper()
	var jobs []sweep.Job
	for _, j := range experiments.Jobs() {
		if j.ID == "E01" || j.ID == "E02" {
			jobs = append(jobs, j)
		}
	}
	outs, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestSweepCheckCatchesAnAlteredCell(t *testing.T) {
	outs := smallSweep(t)
	var doc bytes.Buffer
	doc.WriteString("# header\n\n")
	for _, o := range outs {
		doc.WriteString(o.Value.(*experiments.Table).Render() + "\n")
	}
	doc.WriteString("trailing prose\n")
	if bad := checkSweep(outs, 0, doc.Bytes()); len(bad) != 0 {
		t.Fatalf("unaltered tables: %v", bad)
	}

	tab := outs[1].Value.(*experiments.Table)
	orig := tab.Rows[0][1]
	tab.Rows[0][1] = orig + "0"
	bad := checkSweep(outs, 0, doc.Bytes())
	if len(bad) != 1 || !strings.Contains(bad[0], "E02") {
		t.Errorf("altered cell at seed 0: got %v, want one E02 failure", bad)
	}
	tab.Rows[0][1] = orig

	tab.Rows[0][1] = "DIVERGED"
	if bad := checkSweep(outs, 5, nil); len(bad) != 1 || !strings.Contains(bad[0], "DIVERGED") {
		t.Errorf("DIVERGED cell at seed 5: got %v", bad)
	}
	tab.Rows[0][1] = orig

	outs[0].Status, outs[0].Value = sweep.StatusFailed, nil
	if bad := checkSweep(outs, 5, nil); len(bad) != 1 || !strings.Contains(bad[0], "E01") {
		t.Errorf("failed job: got %v", bad)
	}
}

func TestDbspdCheckCatchesAnAlteredLine(t *testing.T) {
	catalog, err := serve.NewCatalog(experiments.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.Spec{IDs: []string{"E01", "E14"}, Quick: true, Seed: 11}
	got, err := directStream(catalog, spec)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(got, []byte("\n"))
	if !bytes.Contains(lines[1], []byte(`"start_ms":`)) || !bytes.Contains(lines[1], []byte(`"wall_ms":`)) {
		t.Fatalf("second line lacks the masked fields: %s", lines[1])
	}
	verify := func(stream []byte) []string {
		return verifyMisses([]missRec{{job: "j1", spec: spec, masked: sha256.Sum256(maskTimes(stream))}})
	}
	if bad := verify(got); len(bad) != 0 {
		t.Fatalf("unaltered stream: %v", bad)
	}

	// Only the masked fields changed: still equal.
	retimed := wallRE.ReplaceAll(got, []byte(`"wall_ms":123.5`))
	retimed = startRE.ReplaceAll(retimed, []byte(`"start_ms":9.25,`))
	if bad := verify(retimed); len(bad) != 0 {
		t.Errorf("stream differing only in start_ms/wall_ms: %v", bad)
	}

	// One unmasked field of one line altered, masked fields untouched.
	altered := bytes.Join([][]byte{lines[0], bytes.Replace(lines[1], []byte(`"seq":1`), []byte(`"seq":2`), 1)}, nil)
	if bytes.Equal(altered, got) {
		t.Fatal("alteration did not apply")
	}
	if bad := verify(altered); len(bad) != 1 {
		t.Errorf("altered line: got %v, want one failure", bad)
	}
}

func TestRoundAgainstADaemon(t *testing.T) {
	rd, err := runRound(4, newRecorder(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var r run
	misses := rd.tally(&r)
	r.failures = append(r.failures, verifyMisses(misses)...)
	want := clientOps() * nproc()
	if len(r.failures) != 0 || r.attempted != want {
		t.Fatalf("%d of %d ops failed: %v", len(r.failures), r.attempted, r.failures)
	}
	wantMisses := nproc() * ((clientOps() + missEvery - 1) / missEvery)
	if len(misses) != wantMisses || rd.retained != want || rd.cached != want-wantMisses {
		t.Errorf("%d misses, daemon retained %d jobs with %d cached; want %d, %d and %d",
			len(misses), rd.retained, rd.cached, wantMisses, want, want-wantMisses)
	}
}

// A miss whose results read fails must leave its hits counted as
// failures, not index past the client's stream hashes.
func TestFailedMissFailsItsHits(t *testing.T) {
	submits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost {
			submits++
			json.NewEncoder(w).Encode(serve.JobStatus{ID: fmt.Sprintf("j%d", submits), Cached: submits > 1})
			return
		}
		if strings.Contains(req.URL.Path, "/j1/") {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, `{"id":"E01"}`)
	}))
	defer srv.Close()
	c := &dbspdClient{base: srv.URL, hc: srv.Client()}
	spec := serve.Spec{IDs: []string{"E01"}, Quick: true}
	c.do(dbspdOp{Spec: spec, Ref: 0, Miss: true})
	c.do(dbspdOp{Spec: spec, Ref: 0})
	if c.attempted != 2 || len(c.failures) != 2 {
		t.Errorf("%d attempted, failures %q; want 2 and 2", c.attempted, c.failures)
	}
}

func TestTailLevelAtSampleCountEdges(t *testing.T) {
	cases := []struct {
		n     int
		level float64
	}{
		{0, 0},
		{19, 0}, // the median would have 9 beyond
		{20, 50},
		{39, 50}, // p75 is rank 30: 9 beyond
		{40, 75},
		{99, 75}, // p90 is rank 90: 9 beyond
		{100, 90},
		{199, 90}, // p95 is rank 190: 9 beyond
		{200, 95},
		{999, 95},
		{1000, 99},
		{9999, 99}, // p99.9 is rank 9990: 9 beyond
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := tailLevel(c.n); got != c.level {
			t.Errorf("tailLevel(%d) = p%g, want p%g", c.n, got, c.level)
		}
		if c.level == 0 {
			continue
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: percentile needs sorted input
		}
		v, beyond := percentile(sortedCopy(xs), c.level)
		if want := float64(rank(c.n, c.level)); v != want || beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g with %d beyond, want %g with >= %d", c.n, c.level, v, beyond, want, minBeyond)
		}
	}
	if v, beyond := percentile([]float64{1, 2, 3, 4}, 50); v != 2 || beyond != 2 {
		t.Errorf("p50 of 1..4 = %g with %d beyond, want 2 with 2", v, beyond)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1}, 2.5}, {[]float64{5, 1, 3}, 3}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := rec.add(0, "bench", "root", "", at(0), at(100))
	// Two overlapping children cover [10, 60): 50 ms, not 70.
	a := rec.add(root, "serve", "a", "j1", at(10), at(50))
	rec.add(root, "serve", "b", "j2", at(20), at(60))
	rec.add(a, "sweep", "inner", "j1", at(15), at(25))
	self := rec.selfTimes(root)
	want := map[string]time.Duration{
		"bench": 50 * time.Millisecond,
		"serve": 70 * time.Millisecond, // a: 40 - 10 (inner), b: 40
		"sweep": 10 * time.Millisecond,
	}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("%s self time %v, want %v", l, self[l], d)
		}
	}
}
