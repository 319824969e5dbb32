package core

// One reservation: every budget an admitted flow holds — its circuit
// or tree (link ∧ uplink), its disk round time or wake, its CPU domain
// and both inter-site trunk directions — lives in one object that is
// the only code that commits legs, moves them between quality tiers,
// walks the tier ladder and releases. The §3.3 QoS manager hands out
// network, disk and processor time "on the same footing"; the leg
// table below is that footing. Session and Broadcast
// embed a reservation and add only what is theirs (class policy and
// peers; viewer refcounts and the unicast twin).

import (
	"errors"
	"fmt"

	"repro/internal/atm"
	"repro/internal/fabric"
	"repro/internal/fileserver"
	"repro/internal/netsig"
	"repro/internal/sched"
)

// DefaultMinRateFrac is the degradation floor when a spec leaves
// MinRateFrac zero: a flow is never scaled below a quarter of its full
// rate.
const DefaultMinRateFrac = 0.25

// DefaultCPUHz is the CPU-contract frame rate assumed for link-only
// flows (no FrameHz in the spec): protocol processing is charged as if
// the stream delivered DefaultCPUHz frames per second.
const DefaultCPUHz = 100

// qosLadder is the shared tier ladder degradation and restoration walk:
// every contending flow sits at the same rung, which is what makes the
// scaling proportional.
var qosLadder = [...]float64{0.75, 0.5, 0.25}

// geometry is a flow's quality geometry: what full quality is and how
// each leg's demand scales with the quality factor.
type geometry struct {
	PeakRate    int64
	MinRateFrac float64
	FrameBytes  int
	FrameHz     int
}

func (g *geometry) floorFrac() float64 {
	if g.MinRateFrac > 0 {
		return g.MinRateFrac
	}
	return DefaultMinRateFrac
}

// rateAt is the admitted bit rate at quality factor f. Rounded to
// nearest so a factor derived from a requested rate (Renegotiate)
// round-trips to exactly that rate. Best-effort flows (no PeakRate)
// have no admitted rate at any tier.
func (g *geometry) rateAt(f float64) int64 {
	if g.PeakRate <= 0 {
		return 0
	}
	return max(int64(float64(g.PeakRate)*f+0.5), 1)
}

// frameBytesAt is the served frame size at quality factor f.
func (g *geometry) frameBytesAt(f float64) int {
	return min(max(int(float64(g.FrameBytes)*f+0.5), 1), g.FrameBytes)
}

// cpuGeometryAt derives the CPU contract's frame geometry at quality
// factor f: the served frame size and rate for framed streams, or a
// DefaultCPUHz equivalent carved from the admitted rate for link-only
// ones — either way, slice/period ∝ the flow's rate.
func (g *geometry) cpuGeometryAt(f float64) (frameBytes, frameHz int) {
	frameHz = g.FrameHz
	if frameHz <= 0 {
		frameHz = DefaultCPUHz
	}
	if g.FrameBytes > 0 {
		return g.frameBytesAt(f), frameHz
	}
	return max(int(g.rateAt(f)/8/int64(frameHz)), 1), frameHz
}

// The shape of a reservation's circuit leg.
const (
	shapeLeaves = iota // point-to-multipoint circuit to outPorts
	shapeTree          // multicast tree; branches join later
	shapeNone          // no circuit of its own (unicast-ablation channel)
)

// trunkHold is one trunk direction as one flow holds it.
type trunkHold struct {
	budget *fabric.Budget // nil: the flow does not cross this direction
	held   int64
}

// move resizes the hold to rate bits/s; a refused grow changes nothing.
func (h *trunkHold) move(rate int64) bool {
	switch {
	case h.budget == nil:
		return true
	case rate <= h.held:
		h.budget.Release(h.held - rate)
	case !h.budget.Commit(rate - h.held):
		return false
	}
	h.held = rate
	return true
}

// reservation is one flow's holds on every admission leg plus the
// geometry and current tier that size them.
type reservation struct {
	site *Site
	geometry

	// What the flow crosses, fixed at open.
	shape    int
	inPort   int
	outPorts []int
	cmSvc    *fileserver.CMService
	title    string
	cpuSvc   *NodeCPU
	domain   string // CPU domain name; "" = stream<circuit id>

	// What it holds.
	circ     *netsig.Circuit
	cm       *fileserver.CMStream
	cpu      *StreamDomain
	up, down trunkHold

	// factor is the current quality tier: 1 is full quality, lower is
	// degraded; never below floorFrac() while open.
	factor float64
	closed bool
}

// The leg table. Each of the four verbs below — probe, admit, resize,
// release — walks the legs in this one conjunction order; it is written
// as straight-line code rather than an array of per-leg func values
// because arguments to an indirect call escape (every Probe would
// heap-allocate its spec) and because a tier move is a handful of
// nanoseconds that per-leg dispatch would double.
//
//	leg     probe reads           admit / resize / release            refuses with
//	link    netsig port budgets   Establish[Tree] / ModifyRate /      netsig.ErrAdmission
//	uplink  netsig uplink budget    TearDown (one call covers both)   netsig.ErrUplink
//	disk    CM round budget       AdmitCached, else AdmitDegraded /   fileserver.ErrOverCommit
//	                                Reshape / Release
//	cpu     NodeCPU reservation   AdmitStream / Reshape / Release     sched.ErrOverCommit
//	cache   wake + pin budget     — (never vetoes; excuses disk)      —
//	trunk   fabric.Budget ×2      trunkHold.move, up then down        ErrTrunk

// probe evaluates the conjunction for r at full quality, holding
// nothing: every leg's report, then the verdict — every present veto
// leg must admit, a cache-servable stream excusing the disk leg — in
// commit order, so FirstRefusal names the leg whose error admit would
// surface.
func (r *reservation) probe() (rep AdmissionReport) {
	for l := range rep.Legs {
		rep.Legs[l] = LegReport{Leg: Leg(l), OK: true, Headroom: 1}
	}
	m, rate := r.site.Signalling, r.PeakRate
	if lr := &rep.Legs[LegLink]; len(r.outPorts) > 0 {
		lr.Present = true
		for _, p := range r.outPorts {
			free := m.Capacity(p) - m.Committed(p)
			lr.Headroom = min(lr.Headroom, headroomFrac(free, m.Capacity(p)))
			lr.OK = lr.OK && rate <= free
		}
	}
	if m.UplinkAdmission() && rate > 0 {
		free := m.UplinkCapacity(r.inPort) - m.CommittedUplink(r.inPort)
		rep.Legs[LegUplink] = LegReport{Leg: LegUplink, Present: true,
			OK: rate <= free, Headroom: headroomFrac(free, m.UplinkCapacity(r.inPort))}
	}
	if svc := r.cmSvc; svc != nil {
		free := int64(svc.Capacity() - svc.Committed())
		cost, err := svc.StreamCost(r.FrameBytes, r.FrameHz)
		rep.Legs[LegDisk] = LegReport{Leg: LegDisk, Present: true,
			OK: err == nil && int64(cost) <= free, Headroom: headroomFrac(free, int64(svc.Capacity()))}
		if svc.CacheEnabled() {
			rep.CacheServed = svc.CanServeCached(r.title, r.FrameBytes, r.FrameHz)
			rep.Legs[LegCache] = LegReport{Leg: LegCache, Present: true, OK: rep.CacheServed,
				Headroom: headroomFrac(svc.CacheCapacity()-svc.CachePinned(), svc.CacheCapacity())}
		}
	}
	if cpu := r.cpuSvc; cpu != nil {
		fb, hz := r.cpuGeometryAt(1)
		rep.Legs[LegCPU] = LegReport{Leg: LegCPU, Present: true,
			OK: cpu.CanServe(fb, hz), Headroom: max(1-cpu.CommittedFrac(), 0)}
	}
	for _, b := range [...]*fabric.Budget{r.up.budget, r.down.budget} {
		if lr := &rep.Legs[LegTrunk]; b != nil {
			lr.Present, lr.OK = true, lr.OK && b.Can(rate)
			lr.Headroom = min(lr.Headroom, b.Headroom())
		}
	}
	rep.OK = true
	for l, lr := range rep.Legs {
		if lr.Present && !lr.OK && Leg(l) != LegCache && !(Leg(l) == LegDisk && rep.CacheServed) {
			rep.OK, rep.FirstRefusal = false, Leg(l)
			break
		}
	}
	return rep
}

// commit admits every leg at tier f; the first refusal releases
// whatever the earlier legs took, so a refused flow holds nothing.
func (r *reservation) commit(f float64) error {
	if err := r.admit(f); err != nil {
		_ = r.release()
		return err
	}
	r.factor = f
	return nil
}

// admit takes each leg's hold at tier f in conjunction order, stopping
// at the first refusal.
func (r *reservation) admit(f float64) (err error) {
	m := r.site.Signalling
	switch r.shape {
	case shapeLeaves:
		r.circ, err = m.Establish(r.inPort, r.outPorts, r.rateAt(f), false)
	case shapeTree:
		r.circ, err = m.EstablishTree(r.inPort, r.rateAt(f))
	}
	if err != nil {
		return err
	}
	if svc := r.cmSvc; svc != nil {
		// The RAM tier first: a full-quality stream trailing another
		// viewer of the same title rides the leader's wake and skips the
		// disk budget entirely. ErrNoWake falls through to ordinary disk
		// admission; degraded tiers go straight to the disks (the wake
		// is full-quality windows only).
		sfb := r.frameBytesAt(f)
		if sfb == r.FrameBytes {
			r.cm, err = svc.AdmitCached(r.title, r.FrameBytes, r.FrameHz)
		}
		if r.cm == nil && (err == nil || errors.Is(err, fileserver.ErrNoWake)) {
			r.cm, err = svc.AdmitDegraded(r.title, r.FrameBytes, sfb, r.FrameHz)
		}
		if err != nil {
			return err
		}
	}
	if r.cpuSvc != nil {
		name := r.domain
		if name == "" {
			name = fmt.Sprintf("stream%d", r.circ.ID)
		}
		fb, hz := r.cpuGeometryAt(f)
		if r.cpu, err = r.cpuSvc.AdmitStream(name, fb, hz); err != nil {
			return err
		}
	}
	return r.moveTrunk(r.rateAt(f))
}

// resize moves the held legs before end (in conjunction order) to tier
// f and reports the first leg that refused. Shrinks never refuse; a
// refused grow changes nothing on its own leg.
func (r *reservation) resize(f float64, end Leg) (Leg, error) {
	if r.circ != nil && LegLink < end {
		if err := r.site.Signalling.ModifyRate(r.circ.ID, r.rateAt(f)); err != nil {
			return LegLink, err
		}
	}
	if r.cm != nil && LegDisk < end {
		if err := r.cmSvc.Reshape(r.cm, r.frameBytesAt(f), r.FrameHz); err != nil {
			return LegDisk, err
		}
	}
	if r.cpu != nil && LegCPU < end {
		fb, _ := r.cpuGeometryAt(f)
		if err := r.cpu.Reshape(fb); err != nil {
			return LegCPU, err
		}
	}
	if (r.up.budget != nil || r.down.budget != nil) && LegTrunk < end {
		if err := r.moveTrunk(r.rateAt(f)); err != nil {
			return LegTrunk, err
		}
	}
	return numLegs, nil
}

// setLevel moves every held leg to tier f. If a later leg refuses a
// grow, the earlier grows are rolled back (shrinks, which cannot fail),
// so a refused move leaves the flow exactly as it was.
func (r *reservation) setLevel(f float64) error {
	if refused, err := r.resize(f, numLegs); err != nil {
		_, _ = r.resize(r.factor, refused)
		return err
	}
	r.factor = f
	return nil
}

// moveTrunk holds both trunk directions at rate — from nothing held,
// that is admission. A refusal by the second direction undoes the
// first.
func (r *reservation) moveTrunk(rate int64) error {
	up, down, was := &r.up, &r.down, r.up.held
	if !up.move(rate) {
		return fmt.Errorf("%w: up direction committed %d + %d > %d",
			ErrTrunk, up.budget.Committed(), rate-was, up.budget.Capacity())
	}
	if !down.move(rate) {
		up.move(was)
		return fmt.Errorf("%w: down direction committed %d + %d > %d",
			ErrTrunk, down.budget.Committed(), rate-down.held, down.budget.Capacity())
	}
	return nil
}

// release returns every hold to its budget, reporting the circuit's
// teardown error. Idempotent: a leg with nothing held is skipped.
func (r *reservation) release() (err error) {
	if r.circ != nil {
		err = r.site.Signalling.TearDown(r.circ.ID)
		r.circ = nil
	}
	if r.cm != nil {
		r.cm.Release()
		r.cm = nil
	}
	if r.cpu != nil {
		r.cpu.Release()
		r.cpu = nil
	}
	r.up.move(0)
	r.down.move(0)
	return err
}

// isOverSubscription distinguishes budget refusals (which degradation
// can cure) from misconfigurations (which it cannot).
func isOverSubscription(err error) bool {
	return errors.Is(err, netsig.ErrAdmission) ||
		errors.Is(err, fileserver.ErrOverCommit) ||
		errors.Is(err, sched.ErrOverCommit)
}

// descend is the make-room walk down the tier ladder: step(rung) pulls
// the contenders down to the shared rung and retries whatever was
// refused, until a retry fits, fails for a reason degradation cannot
// cure, or the ladder is spent. The final 0 rung means "everyone to
// their own floor" (shrinkTo clamps), covering floors below the ladder.
func descend(step func(rung float64) error) (err error) {
	for _, rung := range append(qosLadder[:], 0) {
		if err = step(rung); err == nil || !isOverSubscription(err) {
			break
		}
	}
	return err
}

// shrinkTo pulls the flow down to rung f (bounded by its own floor)
// and reports whether its tier moved; a no-op when it already sits at
// or below the rung. Only a stream leaving the RAM tier can be refused
// (its whole disk cost must fit). Counting the event is the caller's
// business.
func (r *reservation) shrinkTo(f float64) (moved bool, err error) {
	f = max(f, r.floorFrac())
	if r.closed || f >= r.factor {
		return false, nil
	}
	err = r.setLevel(f)
	return err == nil, err
}

// climb is the restore walk back up: target first, then every ladder
// rung between target and the current tier, taking the highest the
// budgets admit. It reports the first refusal only when no step up fit
// at all.
func (r *reservation) climb(target float64) (firstErr error) {
	for _, f := range append([]float64{target}, qosLadder[:]...) {
		if f > target || f <= r.factor {
			continue
		}
		err := r.setLevel(f)
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// VCI reports the flow's circuit number (0 when it has no circuit of
// its own or is closed).
func (r *reservation) VCI() atm.VCI {
	if r.circ == nil {
		return 0
	}
	return r.circ.VCI
}

// Circuit exposes the underlying circuit or tree (nil when closed).
// Callers must not tear it down behind the owner's back — Close does.
func (r *reservation) Circuit() *netsig.Circuit { return r.circ }

// Rate reports the currently admitted rate in bits/s (0 for
// best-effort and closed flows).
func (r *reservation) Rate() int64 {
	if r.closed {
		return 0
	}
	return r.rateAt(r.factor)
}

// FullRate reports the full-quality rate the flow was opened for.
func (r *reservation) FullRate() int64 { return r.PeakRate }

// Factor reports the current quality tier in (0, 1].
func (r *reservation) Factor() float64 { return r.factor }

// Degraded reports whether the flow is currently below full quality.
func (r *reservation) Degraded() bool { return !r.closed && r.factor < 1 }

// Closed reports whether the flow has been torn down.
func (r *reservation) Closed() bool { return r.closed }
