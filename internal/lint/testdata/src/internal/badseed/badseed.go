// Package badseed is a lint fixture for detflow's source shapes: clock
// reads, global math/rand draws and map-iteration order must not reach
// output, a dbsp send, or the result of an exported function.
package badseed

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fixture.example/internal/dbsp"
)

// Stamp reads the wall clock: finding. The directive above it is
// missing its reason, so it is malformed (a second finding) and
// suppresses nothing.
//
//lint:ignore detflow
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Draw uses the global shared source: finding.
func Draw() int {
	return rand.Intn(10)
}

// DrawSeeded derives a private generator from an explicit seed: no
// finding.
func DrawSeeded(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10)
}

// Emit prints in map-iteration order: finding.
func Emit(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Fanout sends messages in map-iteration order: finding.
func Fanout(c *dbsp.Ctx, dests map[int]dbsp.Word) {
	for d, w := range dests {
		c.Send(d, w)
	}
}

// Keys returns map keys in randomized order: finding.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys is the collect-then-sort idiom: no finding.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Elapsed measures a duration under a justified exemption: no finding.
// The clock read into begin reaches no escaping position on its own.
func Elapsed(fn func()) time.Duration {
	begin := time.Now()
	fn()
	//lint:ignore detflow duration measurement never reaches program output
	return time.Since(begin)
}
