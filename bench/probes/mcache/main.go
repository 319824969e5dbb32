// Probe mcache times the cost-aware LRU behind the interval cache and
// the lfs block cache: one Put of a window-sized entry and one Get, over
// a key space four times the capacity so Puts evict.
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/mcache"
)

func main() {
	budget := probe.Budget()
	const window = 48_000 // metro-flash: 10 frames x 4800 bytes a round
	c := mcache.New[int, []byte](32 << 20)
	keys := 4 * (32 << 20) / window
	val := make([]byte, window)
	i := 0
	r := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			c.Put(i%keys, val, window)
			c.Get((i * 7) % keys)
			i++
		}
	})
	probe.Emit("mcache.probe_put_get_ns", "ns", r.NsPerOp)
}
