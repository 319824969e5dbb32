package core

// This file is the site's stream-plane API: one first-class handle for
// an end-to-end continuous-media stream, replacing the old
// (*netsig.Circuit, *fileserver.CMStream, error) admission tuple every
// caller re-wrapped with hand-rolled teardown.
//
// The paper's §3.3 QoS manager is explicit that QoS is negotiated, not
// binary: "users will not always get what they want", and grants are
// scaled down proportionally when demand exceeds capacity. A Session
// carries that negotiation through the stream's whole lifetime:
//
//   - OpenSession admits the stream's reservation (reservation.go): the
//     conjunction link ∧ uplink ∧ disk ∧ CPU ∧ trunk, atomically — a
//     refusal by any leg holds nothing;
//   - Renegotiate/Degrade/Restore move an open session between quality
//     tiers in place, shrink always succeeding, grow
//     admission-controlled, and a refused grow never dropping the
//     session;
//   - Adaptive-class sessions opt into the paper's policy: when an
//     Adaptive open would be refused, the site scales the Adaptive
//     sessions contending for the same links or disks down —
//     proportionally, floor-bounded — to make room instead of
//     refusing, and closing a session lets degraded survivors climb
//     back up.

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fileserver"
)

// QoSClass is the service class a session is admitted under.
type QoSClass int

const (
	// Guaranteed sessions hold their full reservation for life: the
	// admission verdict is final and the system never degrades them.
	Guaranteed QoSClass = iota
	// Adaptive sessions accept proportional, floor-bounded degradation
	// so that an over-subscribed site admits more streams at reduced
	// quality instead of refusing outright — the §3.3 QoS-manager
	// policy applied to links, disks and CPUs.
	Adaptive
	// BestEffort sessions carry no reservation at all: a zero-rate
	// circuit in the class ordinary data travels in, never admitted
	// against any budget and never guaranteed anything.
	BestEffort
)

// String names the class for scoreboards and errors.
func (c QoSClass) String() string {
	switch c {
	case Guaranteed:
		return "guaranteed"
	case Adaptive:
		return "adaptive"
	case BestEffort:
		return "best-effort"
	}
	return fmt.Sprintf("qos(%d)", int(c))
}

// ErrSessionClosed reports a verb invoked on a closed session.
var ErrSessionClosed = errors.New("core: session is closed")

// SessionSpec describes the stream a caller wants admitted.
type SessionSpec struct {
	// Class selects the QoS class (default Guaranteed).
	Class QoSClass

	// InPort is the sender's switch port; OutPorts the receivers'
	// (point-to-multipoint when more than one).
	InPort   int
	OutPorts []int

	// PeakRate is the full-quality peak rate in bits/s, the rate the
	// link half admits. Required for Guaranteed and Adaptive; must be
	// zero for BestEffort.
	PeakRate int64

	// MinRateFrac bounds degradation: the session's rate (and served
	// frame size) never drops below this fraction of full quality.
	// Zero means DefaultMinRateFrac. Guaranteed sessions ignore it for
	// admission (they are never system-degraded) but an explicit
	// Degrade still honours it.
	MinRateFrac float64

	// CM, when non-nil, makes the session disk-backed: Title is
	// admitted against the serving node's per-disk round budget at
	// FrameBytes×FrameHz, and the session owns the resulting
	// reservation. BestEffort sessions must leave CM nil — there is no
	// such thing as a best-effort disk guarantee.
	CM         *fileserver.CMService
	Title      string
	FrameBytes int
	FrameHz    int

	// CPU, when non-nil, makes the session CPU-admitted too: a
	// per-stream protocol-processing domain is created on the serving
	// node's Nemesis kernel with an EDF contract derived from the
	// session's rate, admission becomes the full conjunction
	// link ∧ uplink ∧ disk ∧ CPU, and the session owns the domain. The
	// contract's period is one frame time (FrameHz, or DefaultCPUHz
	// for link-only streams) and its slice scales with the served
	// bytes, so degrading a session frees processor time for real.
	// BestEffort sessions must leave CPU nil.
	CPU *NodeCPU

	// TrunkUp and TrunkDown, when non-nil, are inter-site trunk
	// directions the stream crosses: each is one more leg of the
	// conjunction, committed at the session's rate, reshaped with every
	// tier move and released on Close. Nil everywhere outside a metro
	// federation.
	TrunkUp, TrunkDown *fabric.Budget
}

// reservation describes the spec's flow to the admission machinery.
func (sp *SessionSpec) reservation(st *Site) reservation {
	return reservation{
		site:     st,
		geometry: geometry{sp.PeakRate, sp.MinRateFrac, sp.FrameBytes, sp.FrameHz},
		inPort:   sp.InPort, outPorts: sp.OutPorts,
		cmSvc: sp.CM, title: sp.Title, cpuSvc: sp.CPU,
		up: trunkHold{budget: sp.TrunkUp}, down: trunkHold{budget: sp.TrunkDown},
	}
}

// SessionStats counts stream-plane activity on a site.
type SessionStats struct {
	Opened   int64 // sessions admitted (any class)
	Refused  int64 // opens refused end to end
	Closed   int64 // sessions closed
	Degraded int64 // degrade events (a session dropped below its tier)
	Restored int64 // restore events (a degraded session climbed back up)

	// RefusedLeg breaks Refused down by the refusing admission leg
	// (the RefusalLeg taxonomy, indexed by Leg); refusals that are
	// misconfigurations rather than over-subscriptions land in
	// RefusedOther instead. The per-leg counts and RefusedOther always
	// sum to Refused.
	RefusedLeg [numLegs]int64
	// RefusedOther counts refusals not attributable to any budget leg.
	RefusedOther int64
}

// Session is one admitted end-to-end stream: its reservation — the
// circuit, the disk hold (when disk-backed), the CPU domain (when
// CPU-admitted) and any trunk directions — travels with it through
// renegotiation and teardown. It is the only public admission handle
// the site hands out.
type Session struct {
	reservation
	spec SessionSpec
	id   int
}

// ID is the session's site-unique identity (the circuit id it was
// admitted with; stable across renegotiations).
func (s *Session) ID() int { return s.id }

// Class reports the session's QoS class.
func (s *Session) Class() QoSClass { return s.spec.Class }

// Spec returns a copy of the spec the session was opened with.
func (s *Session) Spec() SessionSpec { return s.spec }

// CM exposes the disk reservation playout pulls frames from (nil for
// link-only and closed sessions).
func (s *Session) CM() *fileserver.CMStream { return s.cm }

// CPU exposes the stream's protocol-processing domain (nil for
// sessions without a CPU leg and for closed sessions).
func (s *Session) CPU() *StreamDomain { return s.cpu }

// CacheServed reports whether the session's disk leg is currently
// served from the node's RAM tier (interval cache) and so holds zero
// disk round budget. It is live state, not an admission-time label: the
// fileserver demotes the stream to disk admission transparently if its
// wake evaporates, and this starts reporting false.
func (s *Session) CacheServed() bool { return s.cm != nil && s.cm.CacheServed() }

// OpenSession is the site's one admission API: it admits the described
// stream end to end and returns the session that owns every resource
// the admission charged. Refusals hold nothing — in particular a disk
// or CPU refusal releases every reservation taken a moment earlier, so
// a stream that cannot be served never occupies a circuit, a round
// budget or a domain slot.
//
// Refusal classification, for callers that retry or count: a link
// refusal satisfies errors.Is(err, netsig.ErrAdmission), a disk
// refusal errors.Is(err, fileserver.ErrOverCommit), a CPU refusal
// errors.Is(err, sched.ErrOverCommit), a trunk refusal
// errors.Is(err, ErrTrunk); anything else (fileserver.ErrBadStream,
// ErrBadRound, a bad spec) is a misconfiguration, not an
// over-subscription.
//
// An Adaptive open that would be refused does not give up: the site
// scales the Adaptive sessions contending for the same resources down
// the tier ladder — proportionally, bounded by each session's
// MinRateFrac floor — admitting the newcomer at the shared tier. Only
// when every contender (newcomer included) is at its floor and the
// budgets still refuse does the open fail.
func (st *Site) OpenSession(spec SessionSpec) (*Session, error) {
	switch spec.Class {
	case BestEffort:
		if spec.CM != nil {
			return nil, errors.New("core: best-effort sessions carry no disk reservation; spec.CM must be nil")
		}
		if spec.CPU != nil {
			return nil, errors.New("core: best-effort sessions carry no CPU reservation; spec.CPU must be nil")
		}
		if spec.PeakRate != 0 {
			return nil, errors.New("core: best-effort sessions have no admitted rate; spec.PeakRate must be 0")
		}
	case Guaranteed, Adaptive:
		if spec.PeakRate <= 0 {
			return nil, fmt.Errorf("core: %v sessions need a positive PeakRate", spec.Class)
		}
	default:
		return nil, fmt.Errorf("core: unknown QoS class %v", spec.Class)
	}

	st.traceOpen(&spec)
	s, err := st.openAt(spec, 1)
	if err != nil && spec.Class == Adaptive && isOverSubscription(err) {
		s, err = st.openDegrading(spec)
	}
	if err != nil {
		st.QoSStats.Refused++
		st.noteRefusal(&spec, err)
		return nil, err
	}
	st.traceAdmitted(s)
	return s, nil
}

// openAt performs one end-to-end admission attempt at quality factor f
// (bounded by the spec's floor).
func (st *Site) openAt(spec SessionSpec, f float64) (*Session, error) {
	s := &Session{reservation: spec.reservation(st), spec: spec}
	if err := s.commit(max(f, s.floorFrac())); err != nil {
		return nil, err
	}
	s.id = s.circ.ID
	st.sessions = append(st.sessions, s)
	if s.cm != nil {
		st.cmSessions[s.cm] = s
	}
	st.QoSStats.Opened++
	if s.factor < 1 {
		st.QoSStats.Degraded++
	}
	return s, nil
}

// openDegrading is the degrade-instead-of-refuse path: walk the tier
// ladder, pulling every contending Adaptive session down to the shared
// rung (bounded by its own floor) and retrying the newcomer at that
// rung, until either an admission fits or every contender — newcomer
// included — is at its floor. Degrade/restore events are counted only
// for quality changes that outlive the call: the transient bounce of a
// refused open is not an event.
func (st *Site) openDegrading(spec SessionSpec) (s *Session, err error) {
	peers := st.adaptivePeers(spec)
	before := make([]float64, len(peers))
	for i, p := range peers {
		before[i] = p.factor
	}
	err = descend(func(rung float64) (err error) {
		for _, p := range peers {
			_, _ = p.shrinkTo(rung)
		}
		s, err = st.openAt(spec, rung)
		return err
	})
	for i, p := range peers {
		// Nothing fit even at the floor: give the peers their quality
		// back as far as the budgets allow — a refused newcomer must not
		// leave the site permanently degraded.
		if err != nil && !p.closed && p.factor < before[i] {
			_ = p.climb(before[i])
		}
		if !p.closed && p.factor < before[i] {
			st.QoSStats.Degraded++
		}
	}
	return s, err
}

// adaptivePeers returns the open Adaptive sessions contending with spec
// for some admission budget: a shared output link, the same uplink, or
// the same disk service. Sessions sharing nothing are never punished
// for a stranger's admission.
func (st *Site) adaptivePeers(spec SessionSpec) []*Session {
	var out []*Session
	for _, s := range st.sessions {
		if s.closed || s.spec.Class != Adaptive {
			continue
		}
		if s.contendsWith(spec) {
			out = append(out, s)
		}
	}
	return out
}

func (s *Session) contendsWith(spec SessionSpec) bool {
	if spec.CM != nil && s.spec.CM == spec.CM {
		return true
	}
	if spec.CPU != nil && s.spec.CPU == spec.CPU {
		return true
	}
	// A shared input port is contention only while uplink budgeting is
	// on; otherwise the sender's link is not a budget anyone is refused
	// against.
	if s.site.Signalling.UplinkAdmission() && s.spec.InPort == spec.InPort {
		return true
	}
	for _, p := range s.spec.OutPorts {
		for _, q := range spec.OutPorts {
			if p == q {
				return true
			}
		}
	}
	return false
}

// Sessions returns the site's open sessions in admission order.
func (st *Site) Sessions() []*Session {
	out := make([]*Session, 0, len(st.sessions))
	for _, s := range st.sessions {
		if !s.closed {
			out = append(out, s)
		}
	}
	return out
}

// Renegotiate re-admits the session at newRate bits/s in place: no
// teardown, no new VCI, no instant without the guarantee. Shrinking
// always succeeds and frees the difference immediately; growing is
// admission-controlled on every leg (a refusal surfaces the refusing
// leg's error — sched.ErrOverCommit for the processor) and never drops
// the session — it stays open at its previous rate. The session
// renegotiates within [floor, PeakRate]: a shrink below the
// MinRateFrac floor lands at the floor rate (and still succeeds), and
// PeakRate — the stored tier, for disk-backed streams — is the
// ceiling; a bigger contract is a new session.
func (s *Session) Renegotiate(newRate int64) error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.spec.Class == BestEffort {
		return errors.New("core: best-effort sessions have no reservation to renegotiate")
	}
	if newRate <= 0 {
		return fmt.Errorf("core: renegotiated rate must be positive, got %d", newRate)
	}
	if newRate > s.PeakRate {
		return fmt.Errorf("core: rate %d exceeds the session's full rate (%d); reopen for a bigger contract", newRate, s.PeakRate)
	}
	wasDegraded := s.factor < 1
	f := max(float64(newRate)/float64(s.PeakRate), s.floorFrac())
	if err := s.setLevel(f); err != nil {
		return err
	}
	if f < 1 && !wasDegraded {
		s.site.QoSStats.Degraded++
	} else if f >= 1 && wasDegraded {
		s.site.QoSStats.Restored++
	}
	s.site.traceVerb(s, "renegotiate")
	return nil
}

// Degrade drops the session's quality by the given factor in (0, 1),
// bounded below by the session's MinRateFrac floor. Every leg shrinks,
// so only a cache-served stream (which must first fit on the disks)
// can be refused.
func (s *Session) Degrade(factor float64) error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.spec.Class == BestEffort {
		return nil // nothing reserved, nothing to degrade
	}
	if factor <= 0 || factor >= 1 {
		return fmt.Errorf("core: degrade factor must be in (0,1), got %g", factor)
	}
	moved, err := s.shrinkTo(s.factor * factor)
	if moved {
		s.site.QoSStats.Degraded++
		s.site.traceVerb(s, "degrade")
	}
	return err
}

// Restore climbs a degraded session back toward full quality: full
// first, then the ladder rungs above its current tier, taking the
// highest the budgets admit. It reports the first error only when no
// step up fit at all; a partial restore returns nil.
func (s *Session) Restore() error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.factor >= 1 {
		return nil
	}
	if err := s.climb(1); err != nil {
		return err
	}
	s.site.QoSStats.Restored++
	s.site.traceVerb(s, "restore")
	return nil
}

// Close tears the session down end to end — every leg returns to its
// budget — and then lets degraded Adaptive survivors climb back into
// the freed room. Close is idempotent; it returns the teardown error of
// the first close only.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	st := s.site
	st.traceVerb(s, "close")
	s.closed = true
	delete(st.cmSessions, s.cm)
	err := s.release()
	for i, x := range st.sessions {
		if x == s {
			st.sessions = append(st.sessions[:i], st.sessions[i+1:]...)
			break
		}
	}
	st.QoSStats.Closed++
	st.reclaimQoS()
	return err
}

// reclaimQoS runs after capacity frees: degraded Adaptive sessions are
// restored in admission order, each taking the highest tier that now
// fits — the upward half of the §3.3 proportional scaling. The scan
// short-circuits when nothing is degraded, so Guaranteed-only
// teardown churn pays no allocation here.
func (st *Site) reclaimQoS() {
	any := false
	for _, s := range st.sessions {
		if !s.closed && s.spec.Class == Adaptive && s.factor < 1 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	for _, s := range append([]*Session(nil), st.sessions...) {
		if !s.closed && s.spec.Class == Adaptive && s.factor < 1 {
			_ = s.Restore()
		}
	}
}
