package baddetflow

import (
	"sort"

	"fixture.example/internal/dbsp"
)

// sendTo forwards one word; its summary records that it emits.
func sendTo(c *dbsp.Ctx, dest int, w dbsp.Word) {
	c.Send(dest, w)
}

// FanoutVia calls a sending helper while ranging a map. want: messages
// queue in randomized iteration order.
func FanoutVia(c *dbsp.Ctx, dests map[int]dbsp.Word) {
	for d, w := range dests {
		sendTo(c, d, w)
	}
}

// FanoutSorted sends through the same helper over sorted keys; silent.
func FanoutSorted(c *dbsp.Ctx, dests map[int]dbsp.Word) {
	keys := make([]int, 0, len(dests))
	for d := range dests {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	for _, d := range keys {
		sendTo(c, d, dests[d])
	}
}
