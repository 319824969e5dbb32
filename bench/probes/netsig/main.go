// Probe netsig times circuit signalling with uplink admission on, as
// every disk-backed session pays it: one Establish from a server port to
// a viewer port and its TearDown, on a 516-port switch (cluster-vod's).
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/fabric"
	"repro/internal/netsig"
	"repro/internal/sim"
)

func main() {
	budget := probe.Budget()
	const servers, viewers = 16, 500
	s := sim.New()
	sw := fabric.NewSwitch(s, "sw", servers+viewers, sim.Microsecond)
	m := netsig.NewManager(sw, fabric.Rate100M)
	m.EnableUplinkAdmission()
	i := 0
	r := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			c, err := m.Establish(i%servers, []int{servers + i%viewers}, 50_000, false)
			probe.Check(err)
			probe.Check(m.TearDown(c.ID))
			i++
		}
	})
	probe.Emit("netsig.probe_establish_ns", "ns", r.NsPerOp)
}
