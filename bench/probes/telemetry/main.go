// Probe telemetry times the counter hot path every instrumented
// producer sits on: one pre-resolved handle incremented from its
// owning shard.
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/telemetry"
)

func main() {
	budget := probe.Budget()
	reg := telemetry.NewRegistry(2)
	c := reg.Counter(1, telemetry.Key{Node: "loadgen", Subsystem: "traffic", Name: "frames_sent"})
	r := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			c.Inc()
		}
	})
	probe.Emit("telemetry.probe_counter_ns", "ns", r.NsPerOp)
}
