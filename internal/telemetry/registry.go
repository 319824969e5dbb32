package telemetry

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Counter is a monotonic counter. Inc and Add are plain non-atomic
// operations: like every model object, a counter is touched only from
// the event kernel's goroutine.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.n += n }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.n }

// gauge is a registered read-only probe, evaluated lazily at snapshot
// time.
type gauge struct {
	key Key
	fn  func() float64
}

// Registry is the metrics registry: counters, gauges and stats-backed
// samples keyed by (node, subsystem, name). Handles are resolved once
// (Counter, Sample, Gauge) — typically at build time — and then used
// freely on the hot path.
type Registry struct {
	counters map[Key]*Counter
	samples  map[Key]*stats.Sample
	gauges   []gauge
	seen     map[Key]int // gauge dedup: key -> index into gauges
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Key]*Counter),
		samples:  make(map[Key]*stats.Sample),
		seen:     make(map[Key]int),
	}
}

// Counter resolves (creating on first use) the counter handle for key
// k. Every resolution of one key returns the same handle.
func (r *Registry) Counter(k Key) *Counter {
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Sample resolves (creating on first use) the stats.Sample handle for
// key k.
func (r *Registry) Sample(k Key) *stats.Sample {
	s := r.samples[k]
	if s == nil {
		s = &stats.Sample{}
		r.samples[k] = s
	}
	return s
}

// Gauge registers a read-only probe for key k, evaluated at every
// snapshot. Re-registering a key replaces its probe.
func (r *Registry) Gauge(k Key, fn func() float64) {
	if i, ok := r.seen[k]; ok {
		r.gauges[i].fn = fn
		return
	}
	r.seen[k] = len(r.gauges)
	r.gauges = append(r.gauges, gauge{key: k, fn: fn})
}

// CounterValue reads key k's counter (zero if it was never resolved).
func (r *Registry) CounterValue(k Key) int64 {
	if c := r.counters[k]; c != nil {
		return c.n
	}
	return 0
}

// Point is one series value at a snapshot instant.
type Point struct {
	Key   Key
	Kind  string // "counter" or "gauge"
	Value float64
}

// Snapshot reads every counter and evaluates every gauge, returning
// points sorted by (Kind, Key) — counters first — so the order is
// deterministic.
func (r *Registry) Snapshot() []Point {
	keys := make([]Key, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sortKeys(keys)
	pts := make([]Point, 0, len(keys)+len(r.gauges))
	for _, k := range keys {
		pts = append(pts, Point{Key: k, Kind: "counter", Value: float64(r.counters[k].n)})
	}
	gks := make([]Key, len(r.gauges))
	for i, g := range r.gauges {
		gks[i] = g.key
	}
	sortKeys(gks)
	for _, k := range gks {
		pts = append(pts, Point{Key: k, Kind: "gauge", Value: r.gauges[r.seen[k]].fn()})
	}
	return pts
}

// KernelGauges registers the event kernel's own producers,
// sim/events_fired and sim/inbox_depth, under the node name "part0"
// the kernel's series have always carried.
func (r *Registry) KernelGauges(s *sim.Sim) {
	r.Gauge(Key{Node: "part0", Subsystem: "sim", Name: "events_fired"},
		func() float64 { return float64(s.Fired()) })
	r.Gauge(Key{Node: "part0", Subsystem: "sim", Name: "inbox_depth"},
		func() float64 { return float64(s.Pending()) })
}
