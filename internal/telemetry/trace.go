package telemetry

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"slices"

	"repro/internal/sim"
)

// LegSample is one admission leg's state at trace time, lifted from a
// core.Site.Probe AdmissionReport.
type LegSample struct {
	// Leg names the admission leg: "link", "uplink", "disk", "cpu" or
	// "cache".
	Leg string `json:"leg"`
	// OK reports whether this leg had room for the probed session.
	OK bool `json:"ok"`
	// Headroom is the leg's remaining budget as a fraction of
	// capacity, post-admission of the probed session.
	Headroom float64 `json:"headroom"`
}

// Event is one sim-time trace event in a session's lifecycle. Event
// names: open, admitted, refused, renegotiate, degrade, restore,
// cache-served, demoted, underrun, close.
type Event struct {
	// T is the sim-time stamp in nanoseconds.
	T sim.Time `json:"t_ns"`
	// Seq is the event's position in record order.
	Seq uint64 `json:"seq"`
	// Event is the event name.
	Event string `json:"event"`
	// Session is the site-assigned session id, 0 when unknown (e.g.
	// an underrun on a stream the tracer cannot attribute).
	Session int64 `json:"session,omitempty"`
	// Node names the serving node, when known.
	Node string `json:"node,omitempty"`
	// Class is the session's QoS class ("guaranteed", "adaptive",
	// "best-effort") on open/admitted/refused events.
	Class string `json:"class,omitempty"`
	// Leg is the refusing leg on refused events (RefusalLeg taxonomy).
	Leg string `json:"leg,omitempty"`
	// Err carries the refusal error text on refused events.
	Err string `json:"err,omitempty"`
	// Factor is the QoS scale factor on admitted/degrade/restore
	// events (1 = full rate).
	Factor float64 `json:"factor,omitempty"`
	// RateBPS is the session's committed rate on admitted and
	// renegotiate events.
	RateBPS int64 `json:"rate_bps,omitempty"`
	// Legs carries per-leg headrooms from the admission probe on
	// admitted and refused events.
	Legs []LegSample `json:"legs,omitempty"`
}

// Tracer records session lifecycle events into one append buffer.
type Tracer struct {
	events []Event
}

// NewTracer builds an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Record appends ev, stamping its Seq.
func (tr *Tracer) Record(ev Event) {
	ev.Seq = uint64(len(tr.events))
	tr.events = append(tr.events, ev)
}

// Events returns the recorded events in (T, Seq) order: by time, and
// in record order within an instant.
func (tr *Tracer) Events() []Event {
	all := slices.Clone(tr.events)
	slices.SortStableFunc(all, func(a, b Event) int { return cmp.Compare(a.T, b.T) })
	return all
}

// WriteJSONL writes the event stream as JSON lines, one event per
// line, in (T, Seq) order.
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range tr.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}
