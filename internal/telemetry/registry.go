package telemetry

import (
	"fmt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Counter is a partition-owned monotonic counter. Inc and Add are
// plain non-atomic operations: a Counter handle obtained for
// partition p must only be touched from p's event context (or, for
// the global shard, from global/barrier context). Cross-shard totals
// are computed at merge points via Registry.CounterValue.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.n += n }

// Value reads the counter's shard-local value (not the cross-shard
// total; see Registry.CounterValue for that).
func (c *Counter) Value() int64 { return c.n }

// gauge is a registered read-only probe, evaluated lazily and only in
// global/barrier context.
type gauge struct {
	key Key
	fn  func() float64
}

// shard holds one partition's slice of the registry. Each shard is
// written only from its owning context, so no locking is needed.
type shard struct {
	counters map[Key]*Counter
	samples  map[Key]*stats.Sample
}

func newShard() shard {
	return shard{
		counters: make(map[Key]*Counter),
		samples:  make(map[Key]*stats.Sample),
	}
}

// Registry is the metrics registry: counters, gauges and stats-backed
// samples keyed by (node, subsystem, name), sharded per sim.Cluster
// partition with one extra trailing shard for global (barrier)
// context. Handle resolution (Counter, Sample, Gauge) must happen
// from global context — typically at build time — while increments
// happen from the owning partition. Merged reads (CounterValue,
// MergedSample, Snapshot) must likewise run from global or barrier
// context, when all partitions are quiescent.
type Registry struct {
	shards []shard
	gauges []gauge
	seen   map[Key]int // gauge dedup: key -> index into gauges
}

// NewRegistry builds a registry sharded across parts partitions
// (parts >= 1), plus the trailing global shard.
func NewRegistry(parts int) *Registry {
	if parts < 1 {
		parts = 1
	}
	r := &Registry{
		shards: make([]shard, parts+1),
		seen:   make(map[Key]int),
	}
	for i := range r.shards {
		r.shards[i] = newShard()
	}
	return r
}

// Parts reports the number of partition shards (excluding the global
// shard).
func (r *Registry) Parts() int { return len(r.shards) - 1 }

// GlobalShard is the shard index for global (non-partition) context:
// pass it to Counter/Sample for metrics produced by barrier-deferred
// control-plane code or by a serial run's single goroutine.
func (r *Registry) GlobalShard() int { return len(r.shards) - 1 }

// Counter resolves (creating on first use) the counter handle for key
// k on shard part. Resolution must happen from global context; the
// returned handle may then be incremented freely from the owning
// partition's event context.
func (r *Registry) Counter(part int, k Key) *Counter {
	sh := &r.shards[part]
	c := sh.counters[k]
	if c == nil {
		c = &Counter{}
		sh.counters[k] = c
	}
	return c
}

// Sample resolves (creating on first use) the stats.Sample handle for
// key k on shard part. Same ownership rule as Counter.
func (r *Registry) Sample(part int, k Key) *stats.Sample {
	sh := &r.shards[part]
	s := sh.samples[k]
	if s == nil {
		s = &stats.Sample{}
		sh.samples[k] = s
	}
	return s
}

// Gauge registers a read-only probe for key k. fn is evaluated only
// from global or barrier context (all partitions quiescent), so it
// may safely read partition-owned state. Re-registering a key
// replaces its probe.
func (r *Registry) Gauge(k Key, fn func() float64) {
	if i, ok := r.seen[k]; ok {
		r.gauges[i].fn = fn
		return
	}
	r.seen[k] = len(r.gauges)
	r.gauges = append(r.gauges, gauge{key: k, fn: fn})
}

// CounterValue sums key k across every shard. Global/barrier context
// only.
func (r *Registry) CounterValue(k Key) int64 {
	var total int64
	for i := range r.shards {
		if c, ok := r.shards[i].counters[k]; ok {
			total += c.n
		}
	}
	return total
}

// MergedSample merges key k's samples across every shard into one
// stats.Sample (order-independent: quantiles sort). Global/barrier
// context only.
func (r *Registry) MergedSample(k Key) stats.Sample {
	var m stats.Sample
	for i := range r.shards {
		if s, ok := r.shards[i].samples[k]; ok {
			m.Merge(s)
		}
	}
	return m
}

// Point is one merged series value at a snapshot instant.
type Point struct {
	Key   Key
	Kind  string // "counter" or "gauge"
	Value float64
}

// Snapshot merges counters across shards and evaluates every gauge,
// returning points sorted by (Kind, Key) — counters first — so the
// order is deterministic. Global/barrier context only.
func (r *Registry) Snapshot() []Point {
	keys := make([]Key, 0, 16)
	dedup := make(map[Key]bool)
	for i := range r.shards {
		for k := range r.shards[i].counters {
			if !dedup[k] {
				dedup[k] = true
				keys = append(keys, k)
			}
		}
	}
	sortKeys(keys)
	pts := make([]Point, 0, len(keys)+len(r.gauges))
	for _, k := range keys {
		pts = append(pts, Point{Key: k, Kind: "counter", Value: float64(r.CounterValue(k))})
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

// KernelGauges registers the event kernel's own producers: per
// partition sim/events_fired and sim/inbox_depth under "part<i>" (the
// serial kernel is partition 0), and — for two or more partitions
// only, so a 1-partition cluster's metrics stay bit-identical to a
// serial run's — the cluster synchronisation counters under node.
// serial is the kernel when clu is nil, and ignored otherwise.
func (r *Registry) KernelGauges(node string, serial *sim.Sim, clu *sim.Cluster) {
	parts := []*sim.Sim{serial}
	if clu != nil {
		parts = parts[:0]
		for i := 0; i < clu.Parts(); i++ {
			parts = append(parts, clu.Part(i))
		}
	}
	for i, p := range parts {
		part := fmt.Sprintf("part%d", i)
		r.Gauge(Key{Node: part, Subsystem: "sim", Name: "events_fired"},
			func() float64 { return float64(p.Fired()) })
		r.Gauge(Key{Node: part, Subsystem: "sim", Name: "inbox_depth"},
			func() float64 { return float64(p.Pending()) })
	}
	if len(parts) > 1 {
		r.Gauge(Key{Node: node, Subsystem: "sim", Name: "windows"},
			func() float64 { return float64(clu.Windows()) })
		r.Gauge(Key{Node: node, Subsystem: "sim", Name: "barrier_stalls"},
			func() float64 { return float64(clu.BarrierStalls()) })
		r.Gauge(Key{Node: node, Subsystem: "sim", Name: "cross_delivered"},
			func() float64 { return float64(clu.CrossDelivered()) })
	}
}
