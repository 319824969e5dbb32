package core

import "errors"

// ErrTrunk refuses a cross-site admission on the inter-site trunk
// budget: both end sites had room but the edge→core→edge path did
// not. The reservation's trunk leg wraps it with the refusing
// direction's detail; RefusalLeg maps it onto LegTrunk.
var ErrTrunk = errors.New("core: inter-site trunk capacity exceeded")

// This file is the site's admission *probe* surface: one API that
// answers "would this stream be admitted, and where is the headroom?"
// without holding anything. It replaces the ad-hoc probes callers used
// to assemble themselves — vodsite's CanAdmit bool, raw
// CMService.StreamCost arithmetic, per-package capacity getters — with
// a per-leg report, in the spirit of the congestion-adaptive QoS loop
// of Alaya et al. (PAPERS.md): admission as a function of measured
// per-resource headroom, not a single opaque verdict.
//
// The report covers the full conjunction link ∧ uplink ∧ disk ∧ CPU
// plus the RAM tier as a fifth leg: a cache-servable stream skips the
// disk leg entirely (interval caching, fileserver/cache.go), which a
// boolean probe cannot express — the caller needs to know both that
// the node would admit and *why* (co-scheduling a hot title onto the
// node with its wake is only rational if the cache leg is the reason).

// Leg identifies one resource leg of the admission conjunction.
type Leg int

const (
	// LegLink is the receivers' output links (netsig per-port budget).
	LegLink Leg = iota
	// LegUplink is the sender's link into the switch (when uplink
	// budgeting is on).
	LegUplink
	// LegDisk is the serving node's per-disk round-time budget.
	LegDisk
	// LegCPU is the node's protocol-processing reservation.
	LegCPU
	// LegCache is the node's RAM buffer tier: not a veto leg — a
	// cache-servable stream *skips* LegDisk; a cache miss alone never
	// refuses anything.
	LegCache
	// LegTrunk is the inter-site trunk of a metro federation: the
	// directions a cross-site flow's spec names (TrunkUp, TrunkDown),
	// probed and committed like every other leg. Site-local specs carry
	// neither and never exercise it.
	LegTrunk

	numLegs
)

// String names the leg for scoreboards and errors.
func (l Leg) String() string {
	switch l {
	case LegLink:
		return "link"
	case LegUplink:
		return "uplink"
	case LegDisk:
		return "disk"
	case LegCPU:
		return "cpu"
	case LegCache:
		return "cache"
	case LegTrunk:
		return "trunk"
	}
	return "leg(?)"
}

// LegReport is one leg's share of an admission probe; its leg is its
// index in AdmissionReport.Legs.
type LegReport struct {
	// Present reports whether the spec exercises this leg at all: a
	// link-only session has no disk leg, a site without uplink
	// budgeting has no uplink leg. Absent legs are trivially OK with
	// full headroom.
	Present bool
	// OK reports whether this leg would admit the stream right now.
	OK bool
	// Headroom is the leg's free budget fraction in [0, 1] — the
	// measured per-resource headroom replica selection and retry
	// policies rank by. For multi-port legs it is the tightest port's.
	Headroom float64
}

// AdmissionReport is the result of probing one spec against one site:
// the end-to-end verdict plus every leg's headroom.
type AdmissionReport struct {
	// OK reports whether OpenSession would admit the spec at full
	// quality right now. (An Adaptive open may still succeed degraded
	// when OK is false — the report describes the full-quality
	// conjunction.)
	OK bool
	// FirstRefusal is the first refusing leg in conjunction order
	// (link, uplink, disk, cpu, trunk); meaningful only when OK is false.
	FirstRefusal Leg
	// Legs holds every leg's report, indexed by Leg.
	Legs [numLegs]LegReport
}

// Leg returns one leg's report.
func (r *AdmissionReport) Leg(l Leg) LegReport { return r.Legs[l] }

// CacheServed reports that the disk leg would be skipped: the cache
// leg is present and OK, so the stream rides the RAM tier and charges
// no disk round budget.
func (r *AdmissionReport) CacheServed() bool {
	lr := &r.Legs[LegCache]
	return lr.Present && lr.OK
}

// Bottleneck reports the tightest present *veto* leg's (leg, headroom)
// — the node-load figure placement ranks by. The cache leg is excluded:
// an exhausted pin budget never refuses anything (streams just fall
// through to the disks), so it must not make an idle node look
// committed. A report with no present legs has full headroom
// everywhere.
func (r *AdmissionReport) Bottleneck() (Leg, float64) {
	leg, h := LegLink, 1.0
	for l := range r.Legs {
		if lr := &r.Legs[l]; lr.Present && Leg(l) != LegCache && lr.Headroom < h {
			leg, h = Leg(l), lr.Headroom
		}
	}
	return leg, h
}

// headroomFrac is a budget's free fraction, (capacity−committed) /
// capacity clamped to [0, 1].
func headroomFrac(committed, capacity int64) float64 {
	if capacity <= 0 {
		return 0
	}
	f := float64(capacity-committed) / float64(capacity)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Probe evaluates the admission conjunction for spec at full quality
// without holding anything: each leg's check beside, and in the order
// of, the commit OpenSession runs (reservation.go). Probe inspects only
// the resource legs the spec exercises — spec validation (a missing out-port list, a title that is not a
// whole number of rounds) stays with OpenSession, so a spec built only
// to measure a node's load (no OutPorts) probes the node-local legs
// alone. For Guaranteed specs the verdict is exact: Probe(spec).OK iff
// OpenSession(spec) would succeed at full quality right now.
func (st *Site) Probe(spec SessionSpec) AdmissionReport {
	r := spec.reservation(st)
	return r.probe()
}
