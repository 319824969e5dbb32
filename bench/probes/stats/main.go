// Probe stats times Sample.Add, which every delivered frame calls twice
// (latency and jitter); a fresh Sample every two million adds, the
// number fabric-mesh accumulates, keeps growth cost in the figure.
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/stats"
)

func main() {
	budget := probe.Budget()
	var s stats.Sample
	r := probe.Measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			if s.N() == 2_000_000 {
				s = stats.Sample{}
			}
			s.Add(float64(i))
		}
	})
	probe.Emit("stats.probe_sample_add_ns", "ns", r.NsPerOp)
}
