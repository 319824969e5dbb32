// Probe atm times AAL5 segmentation of the 960-byte frames fabric-mesh
// sends (21 cells each): host time and heap bytes per cell.
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/atm"
)

func main() {
	budget := probe.Budget()
	payload := make([]byte, 960)
	cells := float64(atm.CellsFor(len(payload)))
	r := probe.Measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := atm.Segment(atm.VCI(32+i%500), 0, payload)
			probe.Check(err)
		}
	})
	probe.Emit("atm.probe_segment_ns_per_cell", "ns/cell", r.NsPerOp/cells)
	probe.Emit("atm.probe_segment_bytes_per_cell", "bytes/cell", r.BytesPerOp/cells)
}
