// Package telemetry is the simulator's observability plane: a
// deterministic, sim-time-stamped metrics registry, a per-session
// trace recorder, and a time-series sampler.
//
// Everything in this package obeys the same ownership rule as the
// event kernel it observes: it is touched only from the kernel's one
// goroutine, so every emitted artifact is a deterministic function of
// the run.
//
// The hot path — Counter.Inc on a pre-resolved handle — is a plain
// non-atomic increment: zero allocations, no locks, no interlocked
// instructions. Handles are resolved (Registry.Counter /
// Registry.Sample) once, typically at build time.
package telemetry

import "sort"

// Key identifies one metric series: the node that produced it, the
// subsystem within that node, and the metric name. Keys order
// lexicographically by (Node, Subsystem, Name); all emitted artifacts
// sort series in that order so output is deterministic.
type Key struct {
	Node      string
	Subsystem string
	Name      string
}

// String renders the key as "node/subsystem/name".
func (k Key) String() string { return k.Node + "/" + k.Subsystem + "/" + k.Name }

// less is the canonical series order: (Node, Subsystem, Name).
func (k Key) less(o Key) bool {
	if k.Node != o.Node {
		return k.Node < o.Node
	}
	if k.Subsystem != o.Subsystem {
		return k.Subsystem < o.Subsystem
	}
	return k.Name < o.Name
}

// sortKeys sorts keys into the canonical series order.
func sortKeys(ks []Key) {
	sort.Slice(ks, func(i, j int) bool { return ks[i].less(ks[j]) })
}
