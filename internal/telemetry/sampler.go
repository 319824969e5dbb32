package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"

	"repro/internal/sim"
)

// MetricsSchema is the schema tag stamped into sampler output.
const MetricsSchema = "pegasus-metrics/v1"

// seriesID distinguishes a counter series from a gauge series that
// happens to share a key.
type seriesID struct {
	Key
	Kind string
}

// Sampler snapshots the registry at a sim-time cadence, accumulating
// a columnar time series per metric. Chain drives it with a
// self-rescheduling event at exact multiples of the cadence; the
// extra events are counted in Ticks so callers can subtract them from
// events-fired scoreboards.
type Sampler struct {
	reg    *Registry
	every  sim.Duration
	next   sim.Time
	times  []sim.Time
	series map[seriesID]*[]float64
	order  []seriesID
	ticks  int64
}

// NewSampler builds a sampler over reg with the given sim-time
// cadence (every > 0).
func NewSampler(reg *Registry, every sim.Duration) *Sampler {
	return &Sampler{
		reg:    reg,
		every:  every,
		series: make(map[seriesID]*[]float64),
	}
}

// Chain drives the sampler with a self-rescheduling event on s: exact
// cadence, at the cost of extra events on the calendar.
func (sp *Sampler) Chain(s *sim.Sim) {
	sp.next = s.Now() + sp.every
	var tick func()
	tick = func() {
		sp.ticks++
		sp.Tick(s.Now())
		s.After(sp.every, tick)
	}
	s.After(sp.every, tick)
}

// Tick offers the sampler a chance to sample at sim-time t; it
// samples only when t has reached the next due time.
func (sp *Sampler) Tick(t sim.Time) {
	if t < sp.next {
		return
	}
	sp.sample(t)
	sp.next = t + sp.every
}

// Final forces a sample at sim-time t (end of run) unless one was
// already taken at t.
func (sp *Sampler) Final(t sim.Time) {
	if n := len(sp.times); n > 0 && sp.times[n-1] == t {
		return
	}
	sp.sample(t)
	sp.next = t + sp.every
}

// Ticks reports how many chain events have fired — the sampler's own
// footprint on an events-fired scoreboard.
func (sp *Sampler) Ticks() int64 { return sp.ticks }

func (sp *Sampler) sample(t sim.Time) {
	sp.times = append(sp.times, t)
	for _, p := range sp.reg.Snapshot() {
		id := seriesID{Key: p.Key, Kind: p.Kind}
		col := sp.series[id]
		if col == nil {
			// A series born mid-run back-fills zeros for the samples
			// it missed, keeping every column the same length.
			vals := make([]float64, len(sp.times)-1, len(sp.times))
			sp.series[id] = &vals
			sp.order = append(sp.order, id)
			col = &vals
		}
		*col = append(*col, p.Value)
	}
}

// seriesJSON is one column in the emitted metrics document.
type seriesJSON struct {
	Node      string    `json:"node"`
	Subsystem string    `json:"subsystem"`
	Name      string    `json:"name"`
	Kind      string    `json:"kind"`
	Values    []float64 `json:"values"`
}

// metricsJSON is the emitted columnar document.
type metricsJSON struct {
	Schema    string       `json:"schema"`
	CadenceNS sim.Duration `json:"cadence_ns"`
	TNS       []sim.Time   `json:"t_ns"`
	Series    []seriesJSON `json:"series"`
}

// WriteJSON emits the accumulated time series as one columnar JSON
// document: a shared t_ns axis plus one values column per series,
// sorted by (kind, node, subsystem, name).
func (sp *Sampler) WriteJSON(w io.Writer) error {
	ids := make([]seriesID, len(sp.order))
	copy(ids, sp.order)
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Key.less(b.Key)
	})
	doc := metricsJSON{
		Schema:    MetricsSchema,
		CadenceNS: sp.every,
		TNS:       sp.times,
		Series:    make([]seriesJSON, 0, len(ids)),
	}
	if doc.TNS == nil {
		doc.TNS = []sim.Time{}
	}
	for _, id := range ids {
		doc.Series = append(doc.Series, seriesJSON{
			Node:      id.Node,
			Subsystem: id.Subsystem,
			Name:      id.Name,
			Kind:      id.Kind,
			Values:    *sp.series[id],
		})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}
