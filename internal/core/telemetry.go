package core

// Telemetry wiring: the site owns the observability plane's registry
// and (optional) tracer, registers gauges for every admission leg as
// the producers come up, and classifies refusals into the one
// taxonomy both the trace and the scoreboard count by.

import (
	"errors"

	"repro/internal/fileserver"
	"repro/internal/netsig"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RefusalLeg classifies an OpenSession refusal into the admission-leg
// taxonomy of AdmissionReport.FirstRefusal — the one source of truth
// for refusals-by-cause counters. It reports false for errors that
// are misconfigurations rather than over-subscriptions (ErrBadStream,
// a bad spec, ...).
func RefusalLeg(err error) (Leg, bool) {
	switch {
	case errors.Is(err, netsig.ErrUplink):
		return LegUplink, true
	case errors.Is(err, netsig.ErrAdmission):
		return LegLink, true
	case errors.Is(err, fileserver.ErrOverCommit):
		return LegDisk, true
	case errors.Is(err, sched.ErrOverCommit):
		return LegCPU, true
	case errors.Is(err, ErrTrunk):
		return LegTrunk, true
	}
	return 0, false
}

// EnableTrace switches per-session lifecycle tracing on, creating the
// tracer on first use. Call it before any session is opened so the
// trace covers the whole run. Idempotent.
func (st *Site) EnableTrace() *telemetry.Tracer {
	if st.tracer == nil {
		st.tracer = telemetry.NewTracer(st.trParts)
	}
	return st.tracer
}

// AdoptTrace points the site at an externally owned tracer — how a
// metro shares one trace (sized to the metro's partition count)
// across every hosted site, so events from all sites merge into one
// deterministic timeline.
func (st *Site) AdoptTrace(tr *telemetry.Tracer) { st.tracer = tr }

// Trace returns the site's trace recorder, nil until EnableTrace.
func (st *Site) Trace() *telemetry.Tracer { return st.tracer }

// registerSiteGauges wires the site-wide producers into the registry:
// session verbs, refusals by leg, circuit counts, fabric throughput
// and the event kernel itself.
func (st *Site) registerSiteGauges() {
	reg := st.Metrics
	q := &st.QoSStats
	node := st.Config.Name
	site := func(sub, name string, fn func() float64) {
		reg.Gauge(telemetry.Key{Node: node, Subsystem: sub, Name: name}, fn)
	}
	site("admission", "opened", func() float64 { return float64(q.Opened) })
	site("admission", "refused", func() float64 { return float64(q.Refused) })
	site("admission", "closed", func() float64 { return float64(q.Closed) })
	site("admission", "degraded", func() float64 { return float64(q.Degraded) })
	site("admission", "restored", func() float64 { return float64(q.Restored) })
	for l := Leg(0); l < numLegs; l++ {
		l := l
		site("admission", "refused_"+l.String(), func() float64 { return float64(q.RefusedLeg[l]) })
	}
	site("admission", "refused_other", func() float64 { return float64(q.RefusedOther) })
	lv := &st.LiveStats
	site("live", "broadcasts", func() float64 { return float64(lv.Broadcasts) })
	site("live", "joins", func() float64 { return float64(lv.Joins) })
	site("live", "leaves", func() float64 { return float64(lv.Leaves) })
	site("live", "join_refused", func() float64 { return float64(lv.JoinRefused) })
	site("live", "subtree_degraded", func() float64 { return float64(lv.SubtreeDegraded) })
	site("live", "subtree_restored", func() float64 { return float64(lv.SubtreeRestored) })
	m := st.Signalling
	site("net", "circuits_established", func() float64 { return float64(m.Established) })
	site("net", "circuits_refused", func() float64 { return float64(m.Refused) })
	site("net", "circuits_torn_down", func() float64 { return float64(m.TornDown) })
	site("net", "circuits_modified", func() float64 { return float64(m.Modified) })
	sw := st.Switch
	site("fabric", "cells_switched", func() float64 { return float64(sw.Stats().Switched) })
	if !st.hosted {
		// A hosted site's kernel (and its gauges) belongs to the metro
		// layer; registering them per site would just re-register the
		// same keys K times.
		reg.KernelGauges(node, st.Sim, st.clu)
	}
}

// instrumentUplink registers a node's uplink budget gauges.
func (st *Site) instrumentUplink(name string, port int) {
	m := st.Signalling
	st.Metrics.Gauge(telemetry.Key{Node: name, Subsystem: "net", Name: "uplink_committed_bps"},
		func() float64 { return float64(m.CommittedUplink(port)) })
	st.Metrics.Gauge(telemetry.Key{Node: name, Subsystem: "net", Name: "uplink_capacity_bps"},
		func() float64 { return float64(m.UplinkCapacity(port)) })
}

// instrumentCM registers a serving node's disk-leg and cache-tier
// gauges and wires the fileserver's underrun/demotion observers into
// the trace. s is the node's owning partition: the observers fire in
// its event context and record into its trace shard.
func (st *Site) instrumentCM(name string, svc *fileserver.CMService, s *sim.Sim) {
	st.cmNodes[svc] = name
	reg := st.Metrics
	g := func(sub, n string, fn func() float64) {
		reg.Gauge(telemetry.Key{Node: name, Subsystem: sub, Name: n}, fn)
	}
	g("disk", "committed_ns", func() float64 { return float64(svc.Committed()) })
	g("disk", "capacity_ns", func() float64 { return float64(svc.Capacity()) })
	g("disk", "headroom", func() float64 {
		return headroomFrac(int64(svc.Capacity()-svc.Committed()), int64(svc.Capacity()))
	})
	g("disk", "streams", func() float64 { return float64(svc.Open()) })
	g("disk", "refused", func() float64 { return float64(svc.Stats.Refused) })
	g("disk", "rounds", func() float64 { return float64(svc.Stats.Rounds) })
	g("disk", "round_overruns", func() float64 { return float64(svc.Stats.RoundOverruns) })
	g("disk", "underruns", func() float64 { return float64(svc.Stats.Underruns) })
	g("disk", "bytes_streamed", func() float64 { return float64(svc.Stats.BytesStreamed) })
	if svc.CacheEnabled() {
		g("cache", "capacity_bytes", func() float64 { return float64(svc.CacheCapacity()) })
		g("cache", "used_bytes", func() float64 { return float64(svc.CacheUsed()) })
		g("cache", "pinned_bytes", func() float64 { return float64(svc.CachePinned()) })
		g("cache", "hits", func() float64 { return float64(svc.Stats.CacheHits) })
		g("cache", "misses", func() float64 { return float64(svc.Stats.CacheMisses) })
		g("cache", "demotions", func() float64 { return float64(svc.Stats.CacheDemotions) })
		g("cache", "stalls", func() float64 { return float64(svc.Stats.CacheStalls) })
		g("cache", "bytes_served", func() float64 { return float64(svc.Stats.CacheBytesServed) })
		g("cache", "hit_rate", func() float64 {
			n := svc.Stats.CacheHits + svc.Stats.CacheMisses
			if n == 0 {
				return 0
			}
			return float64(svc.Stats.CacheHits) / float64(n)
		})
	}
	svc.OnUnderrun = func(cm *fileserver.CMStream) { st.traceCM(cm, s, name, "underrun") }
	svc.OnDemote = func(cm *fileserver.CMStream) { st.traceCM(cm, s, name, "demoted") }
}

// instrumentCPU registers a node's protocol-processing CPU gauges.
func (st *Site) instrumentCPU(name string, cpu *NodeCPU) {
	g := func(n string, fn func() float64) {
		st.Metrics.Gauge(telemetry.Key{Node: name, Subsystem: "cpu", Name: n}, fn)
	}
	g("reserved_frac", func() float64 { return cpu.CommittedFrac() })
	g("headroom", func() float64 {
		h := 1 - cpu.CommittedFrac()
		if h < 0 {
			h = 0
		}
		return h
	})
	g("deadline_misses", func() float64 { return float64(cpu.Stats.DeadlineMisses) })
	g("admitted", func() float64 { return float64(cpu.Stats.Admitted) })
	g("refused", func() float64 { return float64(cpu.Stats.Refused) })
	g("released", func() float64 { return float64(cpu.Stats.Released) })
}

// sessionNode names the serving node for a spec's trace events ("" for
// link-only sessions, which no single node serves).
func (st *Site) sessionNode(spec *SessionSpec) string {
	if spec.CM != nil {
		return st.cmNodes[spec.CM]
	}
	return ""
}

// LegSamples lifts the report's present legs into trace form.
func (rep AdmissionReport) LegSamples() []telemetry.LegSample {
	var out []telemetry.LegSample
	for _, lr := range rep.Legs {
		if !lr.Present {
			continue
		}
		out = append(out, telemetry.LegSample{Leg: lr.Leg.String(), OK: lr.OK, Headroom: lr.Headroom})
	}
	return out
}

// trace records the event build returns on the global trace shard,
// stamped with the site clock. build runs only while tracing is on, so
// an untraced run pays one nil check per call site. Global context
// only.
func (st *Site) trace(build func() telemetry.Event) {
	tr := st.tracer
	if tr == nil {
		return
	}
	ev := build()
	ev.T = st.Clock.Now()
	tr.Record(tr.GlobalShard(), ev)
}

// refusalLeg names err's admission leg for a trace event ("other" for
// misconfigurations).
func refusalLeg(err error) string {
	if leg, over := RefusalLeg(err); over {
		return leg.String()
	}
	return "other"
}

// traceOpen records a session-open attempt.
func (st *Site) traceOpen(spec *SessionSpec) {
	st.trace(func() telemetry.Event {
		return telemetry.Event{Event: "open", Node: st.sessionNode(spec),
			Class: spec.Class.String(), RateBPS: spec.PeakRate}
	})
}

// traceAdmitted records a successful admission (and, for a stream
// riding the RAM tier, the cache-served event), with the site's
// per-leg headrooms probed at event time. The trunk is not this
// site's to report: the federation's own "spilled" event carries it.
func (st *Site) traceAdmitted(s *Session) {
	st.trace(func() telemetry.Event {
		rep := st.Probe(s.spec)
		rep.Legs[LegTrunk].Present = false
		return telemetry.Event{Event: "admitted", Session: int64(s.id), Node: st.sessionNode(&s.spec),
			Class: s.spec.Class.String(), Factor: s.factor, RateBPS: s.Rate(), Legs: rep.LegSamples()}
	})
	if s.CacheServed() {
		st.trace(func() telemetry.Event {
			return telemetry.Event{Event: "cache-served", Session: int64(s.id), Node: st.sessionNode(&s.spec)}
		})
	}
}

// noteRefusal attributes a final (end-to-end) open refusal to its
// admission leg — the same RefusalLeg classification loadgen counts by
// — and records the trace event with per-leg headrooms. The caller has
// already counted QoSStats.Refused. Global context only.
func (st *Site) noteRefusal(spec *SessionSpec, err error) {
	if leg, over := RefusalLeg(err); over {
		st.QoSStats.RefusedLeg[leg]++
	} else {
		st.QoSStats.RefusedOther++
	}
	st.trace(func() telemetry.Event {
		return telemetry.Event{Event: "refused", Node: st.sessionNode(spec), Class: spec.Class.String(),
			Leg: refusalLeg(err), Err: err.Error(), Legs: st.Probe(*spec).LegSamples()}
	})
}

// traceVerb records a lifecycle verb (renegotiate, degrade, restore,
// close) on an open session.
func (st *Site) traceVerb(s *Session, event string) {
	st.trace(func() telemetry.Event {
		return telemetry.Event{Event: event, Session: int64(s.id), Node: st.sessionNode(&s.spec),
			Factor: s.factor, RateBPS: s.Rate()}
	})
}

// traceCM records a fileserver-side stream event (underrun, demoted)
// from the serving node's partition context, attributing it to the
// owning session when one is known. The session map is written only in
// global context, so the concurrent read here is safe.
func (st *Site) traceCM(cm *fileserver.CMStream, s *sim.Sim, node, event string) {
	tr := st.tracer
	if tr == nil {
		return
	}
	var id int64
	if sess := st.cmSessions[cm]; sess != nil {
		id = int64(sess.id)
	}
	tr.Record(s.Partition(), telemetry.Event{
		T:       s.Now(),
		Event:   event,
		Session: id,
		Node:    node,
	})
}
