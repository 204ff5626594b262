package amsort

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bt"
	"repro/internal/cost"
)

// buildMachine loads count records of rec words at a layout
// [work | data | scratch] and returns the machine and offsets.
func buildMachine(f cost.Func, recs [][]int64) (m *bt.Machine, p *Plan, data, scratch, hot, cold int64) {
	count := int64(len(recs))
	rec := int64(1)
	if count > 0 {
		rec = int64(len(recs[0]))
	}
	p = NewPlan(f, rec, count)
	hot = 0
	cold = p.HotWords()
	data = cold + p.ColdWords()
	scratch = data + count*rec
	m = bt.New(f, scratch+count*rec+8)
	for i, r := range recs {
		for w, v := range r {
			m.Poke(data+int64(i)*rec+int64(w), v)
		}
	}
	return m, p, data, scratch, hot, cold
}

func randRecords(rng *rand.Rand, count, rec int) [][]int64 {
	out := make([][]int64, count)
	for i := range out {
		out[i] = make([]int64, rec)
		out[i][0] = int64(rng.Intn(10 * count))
		for w := 1; w < rec; w++ {
			out[i][w] = int64(100*i + w) // payload identifies the record
		}
	}
	return out
}

// checkSort sorts and verifies both ordering and payload integrity.
func checkSort(t *testing.T, f cost.Func, recs [][]int64) float64 {
	t.Helper()
	m, p, data, scratch, hot, cold := buildMachine(f, recs)
	Sort(m, p, data, scratch, hot, cold)
	count := int64(len(recs))
	if count == 0 {
		return 0
	}
	rec := int64(len(recs[0]))
	if !IsSorted(m, data, count, rec) {
		t.Fatal("output not sorted")
	}
	// The output must be a permutation of the input records: sort the
	// expected records host-side and compare full contents.
	want := make([][]int64, len(recs))
	copy(want, recs)
	sort.SliceStable(want, func(i, j int) bool { return want[i][0] < want[j][0] })
	for i := int64(0); i < count; i++ {
		for w := int64(0); w < rec; w++ {
			if got := m.Peek(data + i*rec + w); got != want[i][w] {
				t.Fatalf("record %d word %d = %d, want %d", i, w, got, want[i][w])
			}
		}
	}
	return m.Cost()
}

func TestSortSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, count := range []int{0, 1, 2, 15, 16, 17, 31, 100} {
		checkSort(t, cost.Poly{Alpha: 0.5}, randRecords(rng, count, 2))
	}
}

func TestSortLargerAndWideRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checkSort(t, cost.Poly{Alpha: 0.5}, randRecords(rng, 3000, 2))
	checkSort(t, cost.Log{}, randRecords(rng, 2048, 4))
	checkSort(t, cost.Poly{Alpha: 0.3}, randRecords(rng, 1000, 1))
}

func TestSortDuplicateKeys(t *testing.T) {
	recs := make([][]int64, 64)
	for i := range recs {
		recs[i] = []int64{int64(i % 4), int64(i)}
	}
	checkSort(t, cost.Log{}, recs)
}

func TestSortReverseSorted(t *testing.T) {
	recs := make([][]int64, 200)
	for i := range recs {
		recs[i] = []int64{int64(200 - i), int64(i)}
	}
	checkSort(t, cost.Poly{Alpha: 0.5}, recs)
}

func TestPlanGeometry(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	p := NewPlan(f, 2, 1<<16)
	if p.Stages() < 2 {
		t.Errorf("expected a multi-stage cascade for 2^16 records, got %d", p.Stages())
	}
	// Chunks must grow strictly outward and start at the floor.
	if p.chunk[0] != minChunk {
		t.Errorf("innermost chunk = %d, want %d", p.chunk[0], minChunk)
	}
	for j := 1; j < len(p.chunk); j++ {
		if p.chunk[j] <= p.chunk[j-1] {
			t.Errorf("chunks not increasing: %v", p.chunk)
		}
	}
	// Workspace is modest: O(f(N)·rec) words.
	if p.ColdWords() > 64*int64(f.Cost(2*2*(1<<16))) {
		t.Errorf("cold workspace %d words too large", p.ColdWords())
	}
	if p.HotWords() != 3*minChunk*2 {
		t.Errorf("HotWords = %d", p.HotWords())
	}
}

func TestPlanRejectsBadRec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPlan(rec=0) did not panic")
		}
	}()
	NewPlan(cost.Log{}, 0, 16)
}

// E16 shape: sort cost is O(N log N · f*(N)); the ratio to N·log N must
// grow no faster than f* (≈ constant at these scales).
func TestSortCostShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}} {
		var ratios []float64
		for _, count := range []int{256, 1024, 4096} {
			c := checkSort(t, f, randRecords(rng, count, 2))
			n := float64(count)
			ratios = append(ratios, c/(n*math.Log2(n)))
		}
		if ratios[2] > 4*ratios[0] {
			t.Errorf("%s: cost/(N log N) grew too fast: %v", f.Name(), ratios)
		}
	}
}

// The whole point of BT sorting: it must be far cheaper than the
// word-at-a-time HMM bound Θ(N·f(N)·log N) for steep f.
func TestSortBeatsWordAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := cost.Poly{Alpha: 0.5}
	count := 4096
	c := checkSort(t, f, randRecords(rng, count, 2))
	n := float64(2 * count)
	hmmBound := n * f.Cost(int64(n)) * math.Log2(n)
	if c > hmmBound/4 {
		t.Errorf("BT sort cost %g not clearly below HMM-style bound %g", c, hmmBound)
	}
}

func TestSortProperty(t *testing.T) {
	prop := func(keys []uint16) bool {
		if len(keys) > 300 {
			keys = keys[:300]
		}
		recs := make([][]int64, len(keys))
		for i, k := range keys {
			recs[i] = []int64{int64(k), int64(i)}
		}
		m, p, data, scratch, hot, cold := buildMachine(cost.Log{}, recs)
		Sort(m, p, data, scratch, hot, cold)
		if len(recs) == 0 {
			return true
		}
		if !IsSorted(m, data, int64(len(recs)), 2) {
			return false
		}
		// Payload multiset preserved: sum check.
		var wantSum, gotSum int64
		for i := range recs {
			wantSum += recs[i][1]
			gotSum += m.Peek(data + int64(i)*2 + 1)
		}
		return wantSum == gotSum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSortAllocsIndependentOfCount pins that Sort allocates its merge
// scratch (stream cursors, stage windows, OUT counters) once per call,
// not once per merge: the allocation count is the same at 2^8 and 2^12
// records, although the larger sort runs 16x the merges.
func TestSortAllocsIndependentOfCount(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	allocs := func(count int) float64 {
		m, p, data, scratch, hot, cold := buildMachine(f, randRecords(rand.New(rand.NewSource(1)), count, 2))
		return testing.AllocsPerRun(5, func() { Sort(m, p, data, scratch, hot, cold) })
	}
	small, large := allocs(1<<8), allocs(1<<12)
	if small != large {
		t.Errorf("Sort allocates %v objects at count 2^8 but %v at 2^12; want equal", small, large)
	}
}
