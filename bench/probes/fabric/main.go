// Probe fabric times one 21-cell train (a 960-byte frame, segmented
// once outside the loop) through link -> switch -> link -> sink: as a
// unicast, and replicated by the switch to eight output legs.
package main

import (
	"fmt"
	"time"

	"repro/bench/internal/probe"
	"repro/internal/atm"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// sink is burst-aware like the load generator's, so the switch hands it
// whole trains; it counts cells so the probe can tell that they arrived.
type sink struct{ cells int }

func (k *sink) HandleCell(atm.Cell)        { k.cells++ }
func (k *sink) HandleBurst(b fabric.Burst) { k.cells += len(b.Cells) }

// frameTime spaces sends by more than the 89 µs a 21-cell train takes
// at 100 Mb/s, so no link queue grows and the one train slice is idle
// again before it is sent again.
const frameTime = 100 * sim.Microsecond

func measure(budget time.Duration, legs int) probe.Result {
	s := sim.New()
	sw := fabric.NewSwitch(s, "sw", legs+1, sim.Microsecond)
	var out sink
	for p := 1; p <= legs; p++ {
		sw.AttachOutput(p, fabric.NewLink(s, fabric.Rate100M, 0, 0, &out))
		sw.Route(0, 1, p, 1)
	}
	in := fabric.NewLink(s, fabric.Rate100M, 0, 0, sw.In(0))
	cells, err := atm.Segment(1, 0, make([]byte, 960))
	probe.Check(err)
	sent := 0
	r := probe.Measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			in.SendBurst(cells)
			s.RunFor(frameTime)
		}
		sent += n
	})
	s.Run()
	if want := sent * len(cells) * legs; out.cells != want {
		probe.Fatal(fmt.Sprintf("%d legs: %d cells delivered, want %d", legs, out.cells, want))
	}
	return r
}

func main() {
	budget := probe.Budget()
	probe.Emit("fabric.probe_burst_ns", "ns", measure(budget, 1).NsPerOp)
	probe.Emit("fabric.probe_mcast_ns", "ns", measure(budget, 8).NsPerOp)
}
