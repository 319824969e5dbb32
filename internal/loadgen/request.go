package loadgen

// Requests: every stream the load generator admits is one request — a
// title (or a synthesized feed) for one viewer, or fanned out to
// several. Who decides where it plays from is the admitter — the
// endpoint the request names (direct), whichever replica's link∧disk
// budgets have room (vodsite.Controller), or whichever site's, spilling
// across the trunks (metro.Controller) — and everything after that
// decision is one lifecycle: admit → wire → (retry while refused) →
// rewire on failover → drop.

import (
	"errors"
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/metro"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

// handle is an admitted request's stream as the lifecycle sees it. A
// failover re-admits a stream in place, so the answers change under
// the same handle.
type handle interface {
	From() *core.Endpoint     // the endpoint it plays from
	CM() *fileserver.CMStream // its disk reservation, playout pulls frames from it (nil: synthesized)
	SourceVCI() atm.VCI       // the circuit From transmits on
	ViewerVCI() atm.VCI       // the circuit the viewers receive on
	Serving() *core.Session   // the serving session (nil where the admitter keeps it private)
	Close()
}

// admitter decides where a request plays from.
type admitter interface {
	// admit opens r's stream, or returns the refusal.
	admit(r *request) (handle, error)
	// probe reports whether admit would succeed right now, without
	// counting a refusal against anything.
	probe(r *request) bool
}

// direct admits on the endpoint the request names: one core.Session, no
// replica choice.
type direct struct{ sc *Scenario }

// spec builds the request's admission spec. End-to-end admission is a
// conjunction: the links must say yes AND, for a stored title, the disk
// heads too — and the node's CPU where the scenario enabled CPU
// admission on it (nil otherwise).
func (d direct) spec(r *request) core.SessionSpec {
	cfg := &d.sc.cfg
	spec := core.SessionSpec{
		Class:    cfg.class(),
		InPort:   r.from.Port,
		OutPorts: make([]int, len(r.viewers)),
		PeakRate: cfg.PeakRate,
	}
	for i, v := range r.viewers {
		spec.OutPorts[i] = v.Port
	}
	if r.server != nil {
		spec.CM = r.server.CM
		spec.CPU = r.server.CPU
		spec.Title = r.title
		spec.FrameBytes = cfg.FrameBytes
		spec.FrameHz = cfg.FrameHz
		// A degraded frame still carries the timestamp header: keep the
		// floor tier at or above headerSize bytes per frame.
		if f := float64(headerSize) / float64(spec.FrameBytes); f > core.DefaultMinRateFrac {
			spec.MinRateFrac = f
		}
	}
	return spec
}

// admit opens the session; OpenSession holds nothing on a refusal by
// any leg. The site's per-leg refusal stats (QoSStats.RefusedLeg, keyed
// by core.RefusalLeg — the single taxonomy) are the scoreboard's source
// for disk and CPU refusals; link and uplink refusals additionally
// count every rejected leg here.
func (d direct) admit(r *request) (handle, error) {
	sess, err := d.sc.site.OpenSession(d.spec(r))
	if err != nil {
		if leg, ok := core.RefusalLeg(err); ok && leg != core.LegDisk && leg != core.LegCPU {
			d.sc.rejected += len(r.viewers)
		}
		return nil, err
	}
	return directStream{sess, r.from}, nil
}

func (d direct) probe(r *request) bool { return d.sc.site.Probe(d.spec(r)).OK }

type directStream struct {
	sess *core.Session
	from *core.Endpoint
}

// From is the endpoint the request named.
func (d directStream) From() *core.Endpoint { return d.from }

// CM is the session's disk reservation (nil for a synthesized feed).
func (d directStream) CM() *fileserver.CMStream { return d.sess.CM() }

// SourceVCI is the session's one circuit.
func (d directStream) SourceVCI() atm.VCI { return d.sess.VCI() }

// ViewerVCI is the same circuit: nothing sits between node and viewer.
func (d directStream) ViewerVCI() atm.VCI { return d.sess.VCI() }

// Serving is the session itself.
func (d directStream) Serving() *core.Session { return d.sess }

// Close closes the session; a teardown error is a scenario bug.
func (d directStream) Close() {
	if err := d.sess.Close(); err != nil {
		panic("loadgen: closing a session: " + err.Error())
	}
}

// siteAdmitter admits through the cluster's replica-selecting
// controller; a refusal feeds its reactive-replication trigger.
type siteAdmitter struct{ *vodsite.Controller }

func (c siteAdmitter) admit(r *request) (handle, error) {
	st, err := c.Admit(r.title, r.viewers[0].Port)
	if err != nil {
		return nil, err
	}
	st.Tag = r
	return siteStream{st}, nil
}

func (c siteAdmitter) probe(r *request) bool { return c.Probe(r.title, r.viewers[0].Port).OK }

type siteStream struct{ *vodsite.Stream }

// From is the serving replica's endpoint.
func (s siteStream) From() *core.Endpoint { return s.Node().SS.Net }

// SourceVCI is the stream's one circuit.
func (s siteStream) SourceVCI() atm.VCI { return s.VCI() }

// ViewerVCI is the same circuit: a site stream never leaves its site.
func (s siteStream) ViewerVCI() atm.VCI { return s.VCI() }

// Serving is the stream's end-to-end session.
func (s siteStream) Serving() *core.Session { return s.Session() }

// Close releases the stream.
func (s siteStream) Close() { s.Release() }

// metroAdmitter admits through the federation — home site (0, where
// every viewer lives) first, spilling cross-site on refusal.
type metroAdmitter struct{ *metro.Controller }

func (m metroAdmitter) admit(r *request) (handle, error) {
	s, err := m.OpenSession(0, r.title, r.viewers[0].Port)
	if err != nil {
		return nil, err
	}
	s.Tag = r
	return metroSession{s}, nil
}

func (m metroAdmitter) probe(r *request) bool {
	rep, _ := m.Probe(0, r.title, r.viewers[0].Port)
	return rep.OK
}

type metroSession struct{ *metro.Session }

// From is the serving node's endpoint, on whichever site carries the
// stream.
func (s metroSession) From() *core.Endpoint { return s.Node().SS.Net }

// Serving is nil: a metro session keeps its serving stream private, so
// the scoreboard's cache-served census does not see into a federation.
func (s metroSession) Serving() *core.Session { return nil }

// request is one stream asked for: the frame source (rewired to
// whichever endpoint serves it), the viewers its measuring sinks sit
// on, and the admitted stream's handle. Stream is its exported name.
type request struct {
	sc *Scenario

	// Direct admission: the transmitting endpoint and, for a stored
	// title, the node it lives on. A controller picks both itself.
	from   *core.Endpoint
	server *core.StorageServer
	title  string // "" for a synthesized feed

	viewers []*core.Endpoint
	phase   sim.Duration
	src     *source
	h       handle  // nil while refused, pending, stopped or dropped
	vci     atm.VCI // the viewers' demux registration (0 when down)
}

// Stream is one request as churn drivers and assertions see it.
type Stream = request

// Down reports whether the stream is currently torn down.
func (r *request) Down() bool { return r.h == nil }

// Session exposes the stream's serving session (nil while down, and for
// a metro session).
func (r *request) Session() *core.Session {
	if r.h == nil {
		return nil
	}
	return r.h.Serving()
}

// VCI reports the circuit the viewers currently receive on (0 when down).
func (r *request) VCI() atm.VCI { return r.vci }

// Stop tears the stream down end to end: the source stops emitting, the
// session closes (freeing its admitted rate, disk reservation and
// switch routes) and every viewer's demux registration is removed.
func (r *request) Stop() {
	if r.h == nil {
		return
	}
	h := r.h
	r.sc.drop(r)
	h.Close()
	r.sc.tornDown++
}

// Restart re-admits a stopped stream: a fresh stream (new VCI) through
// admission control — link and, for a stored title, disk — new demux
// registrations, and the source resumes (a storage-backed source waits
// for its first read-ahead window).
func (r *request) Restart() error {
	if err := r.sc.admit(r); err != nil {
		return err
	}
	if r.src.cm == nil || r.src.cm.Ready() {
		r.src.start(r.phase)
	}
	return nil
}

// newRequest issues one request; refused, it waits in pending. Phases
// spread deterministically across the frame period so the site doesn't
// emit every frame on the same instant.
func (sc *Scenario) newRequest(from *core.Endpoint, server *core.StorageServer, title string, idx int, viewers ...*core.Endpoint) {
	period := sim.Second / sim.Duration(sc.cfg.FrameHz)
	r := &request{
		sc:      sc,
		from:    from,
		server:  server,
		title:   title,
		viewers: viewers,
		phase:   sim.Duration(int64(idx)*7919) % period,
		// The source's partition is unknown until admission picks a
		// serving endpoint; wire migrates it there.
		src: &source{period: period, payload: make([]byte, sc.cfg.FrameBytes)},
	}
	sc.requests = append(sc.requests, r)
	if sc.admit(r) != nil {
		sc.pending = append(sc.pending, r)
	}
}

// servable panics unless err is an over-subscription refusal. A
// scenario bug (unknown title, ragged length, bad round/Hz) counted as
// "refused" would let a misconfiguration impersonate the
// over-subscription, replication or spill proof.
func servable(title string, err error) {
	if _, ok := core.RefusalLeg(err); !ok && !errors.Is(err, vodsite.ErrNoReplica) {
		panic(fmt.Sprintf("loadgen: title %s not servable: %v", title, err))
	}
}

// admit asks the admitter for a stream and wires the request's source
// and sinks to it, without starting the source; it returns the refusal.
func (sc *Scenario) admit(r *request) error {
	if r.h != nil {
		return nil
	}
	h, err := sc.adm.admit(r)
	if err != nil {
		servable(r.title, err)
		return err
	}
	r.h = h
	sc.wire(r)
	return nil
}

// wire points the request's source at the serving endpoint's uplink —
// migrating it onto that endpoint's partition — and registers a fresh
// sink per viewer under the viewer-side circuit (the home-leg VCI of a
// spilled metro session). Playout of a stored title starts when the
// node's first read-ahead window is buffered.
func (sc *Scenario) wire(r *request) {
	from := r.h.From()
	r.src.migrate(from.Sim, sc.trafficFor(from.Sim).framesSent)
	r.src.out = from.ToSwitch
	r.src.vci = r.h.SourceVCI()
	r.vci = r.h.ViewerVCI()
	for _, v := range r.viewers {
		v.Demux.Register(r.vci, &sink{sim: v.Sim, tl: sc.trafficFor(v.Sim), period: r.src.period})
	}
	sc.admitted += len(r.viewers)
	if cm := r.h.CM(); cm != nil {
		r.src.cm = cm
		cm.OnReady(func() {
			if r.src.cm == cm {
				r.src.start(r.phase)
			}
		})
	}
}

// unwire stops the request's source and removes its sinks.
func (sc *Scenario) unwire(r *request) {
	r.src.stop()
	r.src.cm = nil
	for _, v := range r.viewers {
		v.Demux.Unregister(r.vci)
	}
	r.vci = 0
}

// retryPending re-attempts the refused requests after fresh capacity
// landed; those that still fit nowhere stay pending. With probeFirst
// only requests the admitter would take right now reach it, so a retry
// wave over a still-full site doesn't spin the refusal counters.
func (sc *Scenario) retryPending(probeFirst bool) {
	keep := sc.pending[:0]
	for _, r := range sc.pending {
		if (probeFirst && !sc.adm.probe(r)) || sc.admit(r) != nil {
			keep = append(keep, r)
		}
	}
	sc.pending = keep
}

// retryCacheTick retries pending requests every round once the RAM
// tier could be serving them: a request refused at build time (no disk
// room) becomes admittable the moment a leader's wake for its title is
// resident on some replica. Runs in global (barrier) context, like
// every other control-plane verb.
func (sc *Scenario) retryCacheTick() {
	sc.retryPending(true)
	sc.clock.CallAfter(sc.cfg.Round, sc.retryCacheTick)
}

// rewire moves a failover-recovered request onto its new node: fresh
// circuits, fresh sinks (the service gap is a migration, not jitter),
// playout resumes when the new node's read-ahead is buffered.
func (sc *Scenario) rewire(r *request) {
	sc.unwire(r)
	sc.wire(r)
}

// drop finishes a request whose stream is gone — stopped, or lost with
// its node and no surviving capacity; nothing retries it.
func (sc *Scenario) drop(r *request) {
	sc.unwire(r)
	r.h = nil
}
