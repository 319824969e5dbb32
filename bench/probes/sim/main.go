// Probe sim times the event kernel at fabric-mesh geometry: 500
// self-rearming 100 Hz timers on the serial kernel, and the same
// population split over a two-partition sim.Cluster with every 16th
// event crossing partitions at the lookahead (the cluster-vod-p2 shape).
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/sim"
)

const (
	chains = 500
	period = 10 * sim.Millisecond
)

func main() {
	budget := probe.Budget()

	s := sim.New()
	left := 0
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			s.After(period, fire)
		}
	}
	serial := probe.Measure(budget, func(n int) {
		// chains events fire without re-arming, so n events fire in all.
		left = max(0, n-chains)
		for i := 0; i < min(n, chains); i++ {
			s.After(sim.Duration(i), fire)
		}
		s.Run()
	})
	probe.Emit("sim.probe_event_ns", "ns", serial.NsPerOp)

	const (
		parts     = 2
		lookahead = 16 * sim.Microsecond
		stride    = sim.Microsecond
	)
	c := sim.NewCluster(parts, lookahead)
	var quota [parts]int
	var fires [parts]func()
	for p := 0; p < parts; p++ {
		p, src, dst := p, c.Part(p), c.Part((p+1)%parts)
		fires[p] = func() {
			if quota[p] == 0 {
				return
			}
			quota[p]--
			if quota[p]%16 == 0 {
				src.Cross(dst, src.Now()+lookahead, func() {})
			}
			src.After(stride, fires[p])
		}
	}
	sharded := probe.Measure(budget, func(n int) {
		for p := 0; p < parts; p++ {
			quota[p] = n / parts
			c.Part(p).After(stride, fires[p])
		}
		c.Run()
	})
	probe.Emit("sim.probe_event_p2_ns", "ns", sharded.NsPerOp)
}
