package core

// This file is the site's live-stream plane: one camera (or encoder)
// feeding any number of displays through switch-level multicast — the
// paper's tvdirector/videophone world, where a join must not cost the
// source anything and the fabric, not a CPU, does the fan-out.
//
// A Broadcast owns exactly one uplink reservation and one (optional)
// CPU contract, no matter how many viewers: the netsig tree charges the
// source's link once, the switch replicates each cell train
// arithmetically per output port, and viewers behind an already-joined
// port ride for free (a refcount, no admission at all). The only
// per-branch cost is the new leaf's output-link budget.
//
// Join pressure follows the §3.3 ladder applied per subtree: when a
// join would be refused on a link budget, the channel's reservation
// drops a quality tier (every live branch, the uplink, the CPU contract
// and any trunk direction shrink in place) instead of refusing, and
// leave-driven slack climbs it back up — the congestion-adaptive
// feedback of Alaya et al. (PAPERS.md) with the tree, not the session,
// as the adaptation unit.

import (
	"errors"
	"fmt"

	"repro/internal/atm"
	"repro/internal/fabric"
	"repro/internal/netsig"
	"repro/internal/telemetry"
)

// ErrBroadcastClosed reports a verb invoked on a closed broadcast.
var ErrBroadcastClosed = errors.New("core: broadcast is closed")

// BroadcastSpec describes a live channel a caller wants on the air.
type BroadcastSpec struct {
	// InPort is the source's switch port (camera, encoder, trunk
	// ingress).
	InPort int
	// PeakRate is the channel's full-quality peak rate in bits/s; the
	// tree's uplink and every branch are admitted at the current tier's
	// fraction of it.
	PeakRate int64
	// MinRateFrac bounds subtree degradation, as in SessionSpec. Zero
	// means DefaultMinRateFrac.
	MinRateFrac float64
	// Title names the channel in traces and the per-channel viewer
	// gauge. Empty gets a generated name.
	Title string
	// FrameBytes/FrameHz give the source's frame geometry, used for the
	// CPU contract; zero falls back to a DefaultCPUHz equivalent carved
	// from the rate.
	FrameBytes int
	FrameHz    int
	// CPU, when non-nil, charges the source's protocol processing (one
	// contract for the whole channel — viewers never touch a CPU).
	CPU *NodeCPU
	// Unicast is the ablation twin: every Join opens its own
	// single-leaf circuit from the source instead of sharing a tree, so
	// the uplink is charged per viewer and the source must transmit one
	// copy each. No subtree ladder applies — a refused join refuses.
	Unicast bool
	// TrunkDown, when non-nil, is the inter-site trunk direction feeding
	// InPort (a remote site's subtree): one more leg of the channel's
	// reservation, held at the subtree's tier from open to Close.
	// TrunkUp is the direction a home tree crosses on its way out; it is
	// held only while AttachTrunk has the tree branched onto the trunk
	// port. Nil everywhere outside a metro federation.
	TrunkUp, TrunkDown *fabric.Budget
}

// BroadcastStats counts live-plane activity on a site.
type BroadcastStats struct {
	Broadcasts       int64 // channels opened
	BroadcastsClosed int64 // channels closed
	Joins            int64 // viewers admitted (including free riders)
	Leaves           int64 // viewers departed
	JoinRefused      int64 // joins refused end to end
	SubtreeDegraded  int64 // tier drops under join pressure
	SubtreeRestored  int64 // tier climbs on leave-driven slack

	// JoinRefusedLeg breaks JoinRefused down by the refusing admission
	// leg (RefusalLeg taxonomy); misconfigurations land in
	// JoinRefusedOther.
	JoinRefusedLeg [numLegs]int64
	// JoinRefusedOther counts refusals not attributable to a budget leg.
	JoinRefusedOther int64
}

// Broadcast is one live channel on the air: its reservation — the
// multicast tree (nothing, in the unicast ablation), the source's CPU
// contract and any trunk direction — plus the viewer bookkeeping and
// the ablation's per-viewer circuits.
type Broadcast struct {
	reservation
	spec BroadcastSpec
	id   int

	// viewers refcounts joined viewers per output port: only the first
	// viewer on a port grows a branch, the rest share its cells.
	viewers  map[int]int
	nviewers int

	// uniJoins tracks outstanding unicast-ablation viewer handles so
	// Close can tear their circuits down; tree viewers need no tracking
	// (the tree teardown releases every branch at once).
	uniJoins []*Join
}

// Join is one viewer's handle on a broadcast. Leaving through it prunes
// the viewer's branch when it was the port's last.
type Join struct {
	b    *Broadcast
	port int
	circ *netsig.Circuit // unicast ablation: this viewer's own circuit
	done bool
}

// Port reports the switch port the viewer joined on.
func (j *Join) Port() int { return j.port }

// VCI reports the circuit number carrying this viewer's cells: the
// shared tree's VCI, or — in the unicast ablation — the viewer's own
// circuit (0 once the viewer has left a unicast channel).
func (j *Join) VCI() atm.VCI {
	if j.circ != nil {
		return j.circ.VCI
	}
	return j.b.VCI()
}

// Closed reports whether the viewer has left.
func (j *Join) Closed() bool { return j.done }

// OpenBroadcast puts a live channel on the air: one uplink reservation
// at the source (the switch does the fan-out, so the source's link is
// crossed once regardless of viewers) plus, when the spec carries them,
// the source's CPU contract and the trunk direction feeding the tree —
// admitted atomically, a refusal by any leg holding nothing. Viewers
// join later; a fresh broadcast forwards nowhere.
func (st *Site) OpenBroadcast(spec BroadcastSpec) (*Broadcast, error) {
	if spec.PeakRate <= 0 {
		return nil, errors.New("core: broadcasts need a positive PeakRate")
	}
	st.nextBcast++
	id := st.nextBcast
	if spec.Title == "" {
		spec.Title = fmt.Sprintf("bcast%d", id)
	}
	b := &Broadcast{spec: spec, id: id, viewers: make(map[int]int)}
	b.reservation = reservation{
		site:     st,
		geometry: geometry{spec.PeakRate, spec.MinRateFrac, spec.FrameBytes, spec.FrameHz},
		shape:    shapeTree, inPort: spec.InPort,
		cpuSvc: spec.CPU, domain: fmt.Sprintf("bcast%d", id),
		down:   trunkHold{budget: spec.TrunkDown},
		factor: 1,
	}
	if spec.Unicast {
		b.shape = shapeNone
	}
	if err := b.commit(1); err != nil {
		st.traceBcast(b, "broadcast-refused", err)
		return nil, err
	}
	st.broadcasts = append(st.broadcasts, b)
	st.LiveStats.Broadcasts++
	st.Metrics.Gauge(telemetry.Key{Node: spec.Title, Subsystem: "live", Name: "viewers"},
		func() float64 { return float64(b.nviewers) })
	st.traceBcast(b, "broadcast-open", nil)
	return b, nil
}

// ID is the broadcast's site-unique identity.
func (b *Broadcast) ID() int { return b.id }

// Title reports the channel name.
func (b *Broadcast) Title() string { return b.spec.Title }

// Viewers reports the current viewer count (free riders included).
func (b *Broadcast) Viewers() int { return b.nviewers }

// Branches reports the number of distinct output ports carrying the
// channel — the fan-out the switch actually replicates to.
func (b *Broadcast) Branches() int { return len(b.viewers) }

// AttachTrunk branches the tree onto the site's trunk port and takes
// the spec's TrunkUp direction at the tree's current tier — the single
// copy a federation's remote sites share. From then on the direction
// is an ordinary leg: tier moves reshape it, a climb it refuses is
// rolled back, Close releases it. A refusal (ErrTrunk) holds nothing.
func (b *Broadcast) AttachTrunk(port int) error {
	if b.circ == nil {
		return errors.New("core: no tree to branch onto the trunk (unicast or closed channel)")
	}
	m := b.site.Signalling
	if err := m.JoinTree(b.circ.ID, port); err != nil {
		return err
	}
	b.up.budget = b.spec.TrunkUp
	if err := b.moveTrunk(b.Rate()); err != nil {
		b.up.budget = nil
		_ = m.LeaveTree(b.circ.ID, port)
		return err
	}
	return nil
}

// DetachTrunk prunes the trunk branch and returns the TrunkUp hold.
func (b *Broadcast) DetachTrunk(port int) error {
	b.up.move(0)
	b.up.budget = nil
	return b.site.Signalling.LeaveTree(b.circ.ID, port)
}

// Join admits one viewer on the given switch port. The first viewer on
// a port grows a tree branch (admission-controlled on that port's
// link); later viewers on the same port share its cells at zero
// admission cost. A join the link budget would refuse walks the
// channel's subtree down the tier ladder instead — every live branch
// and the uplink shrink in place — and only when the tree is at its
// floor and the budget still refuses does the join fail (the tree is
// restored to its prior tier: a refused viewer must not leave the
// channel degraded).
func (b *Broadcast) Join(port int) (*Join, error) {
	st := b.site
	if b.closed {
		return nil, ErrBroadcastClosed
	}
	if b.spec.Unicast {
		circ, err := st.Signalling.Establish(b.spec.InPort, []int{port}, b.rateAt(b.factor), false)
		if err != nil {
			st.noteJoinRefusal(b, err)
			return nil, err
		}
		j := &Join{b: b, port: port, circ: circ}
		b.uniJoins = append(b.uniJoins, j)
		b.viewers[port]++
		b.nviewers++
		st.LiveStats.Joins++
		st.traceJoin(b, port, "join")
		return j, nil
	}
	if b.viewers[port] == 0 {
		if err := b.growBranch(port); err != nil {
			st.noteJoinRefusal(b, err)
			return nil, err
		}
	}
	b.viewers[port]++
	b.nviewers++
	st.LiveStats.Joins++
	st.traceJoin(b, port, "join")
	return &Join{b: b, port: port}, nil
}

// growBranch admits a new leaf, degrading the subtree tier by tier when
// the leaf's link refuses, and restoring the prior tier if even the
// floor does not fit.
func (b *Broadcast) growBranch(port int) error {
	st := b.site
	refusal := st.Signalling.JoinTree(b.circ.ID, port)
	if refusal == nil || !isOverSubscription(refusal) {
		return refusal
	}
	before := b.factor
	err := descend(func(rung float64) error {
		if moved, _ := b.shrinkTo(rung); !moved {
			return refusal // same tier, same answer
		}
		st.LiveStats.SubtreeDegraded++
		st.traceTier(b, "subtree-degrade")
		refusal = st.Signalling.JoinTree(b.circ.ID, port)
		return refusal
	})
	// Nothing fit even at the floor: give the viewers their quality
	// back as far as the budgets allow.
	if err != nil && b.factor < before && b.climb(before) == nil {
		st.LiveStats.SubtreeRestored++
		st.traceTier(b, "subtree-restore")
	}
	return err
}

// Leave removes the viewer: the port's branch is pruned when this was
// its last viewer (budget released, switch route gone — cells already
// switched still arrive), and the freed slack lets a degraded subtree
// climb back up. Idempotent.
func (j *Join) Leave() error {
	if j.done {
		return nil
	}
	b := j.b
	st := b.site
	if b.closed {
		j.done = true
		return ErrBroadcastClosed
	}
	j.done = true
	b.viewers[j.port]--
	b.nviewers--
	if b.viewers[j.port] == 0 {
		delete(b.viewers, j.port)
	}
	var err error
	if j.circ != nil {
		err = st.Signalling.TearDown(j.circ.ID)
		j.circ = nil
		for i, x := range b.uniJoins {
			if x == j {
				b.uniJoins = append(b.uniJoins[:i], b.uniJoins[i+1:]...)
				break
			}
		}
	} else if _, live := b.viewers[j.port]; !live {
		err = st.Signalling.LeaveTree(b.circ.ID, j.port)
	}
	st.LiveStats.Leaves++
	st.traceJoin(b, j.port, "leave")
	// The freed slack lets a degraded subtree take the highest tier the
	// budgets now admit.
	if b.Degraded() && b.climb(1) == nil {
		st.LiveStats.SubtreeRestored++
		st.traceTier(b, "subtree-restore")
	}
	return err
}

// Close takes the channel off the air: the ablation's per-viewer
// circuits tear down, the reservation (tree with every branch, CPU
// contract, trunk directions) releases, and every outstanding Join
// handle is dead. Idempotent; returns the first teardown error.
func (b *Broadcast) Close() error {
	if b.closed {
		return nil
	}
	st := b.site
	st.traceBcast(b, "broadcast-close", nil)
	b.closed = true
	var err error
	for _, j := range b.uniJoins {
		if terr := st.Signalling.TearDown(j.circ.ID); terr != nil && err == nil {
			err = terr
		}
		j.circ = nil
		j.done = true
	}
	b.uniJoins = nil
	if rerr := b.release(); err == nil {
		err = rerr
	}
	b.viewers = map[int]int{}
	b.nviewers = 0
	for i, x := range st.broadcasts {
		if x == b {
			st.broadcasts = append(st.broadcasts[:i], st.broadcasts[i+1:]...)
			break
		}
	}
	st.LiveStats.BroadcastsClosed++
	return err
}

// Broadcasts returns the site's on-air channels in open order.
func (st *Site) Broadcasts() []*Broadcast {
	out := make([]*Broadcast, 0, len(st.broadcasts))
	out = append(out, st.broadcasts...)
	return out
}

// noteJoinRefusal attributes a refused join to its admission leg and
// records the trace event. Global context only.
func (st *Site) noteJoinRefusal(b *Broadcast, err error) {
	st.LiveStats.JoinRefused++
	if leg, over := RefusalLeg(err); over {
		st.LiveStats.JoinRefusedLeg[leg]++
	} else {
		st.LiveStats.JoinRefusedOther++
	}
	st.trace(func() telemetry.Event {
		ev := b.event("join-refused", b.Rate())
		ev.Factor, ev.Leg, ev.Err = 0, refusalLeg(err), err.Error()
		return ev
	})
}

// event is the trace record every channel event starts from.
func (b *Broadcast) event(name string, rate int64) telemetry.Event {
	return telemetry.Event{Event: name, Session: int64(b.id), Node: b.spec.Title,
		Factor: b.factor, RateBPS: rate}
}

// traceBcast records a channel lifecycle event.
func (st *Site) traceBcast(b *Broadcast, event string, err error) {
	st.trace(func() telemetry.Event {
		ev := b.event(event, b.PeakRate)
		if err != nil {
			ev.Err = err.Error()
			if leg, over := RefusalLeg(err); over {
				ev.Leg = leg.String()
			}
		}
		return ev
	})
}

// traceJoin records a viewer join/leave; the rate column carries the
// viewer's port.
func (st *Site) traceJoin(b *Broadcast, port int, event string) {
	st.trace(func() telemetry.Event { return b.event(event, int64(port)) })
}

// traceTier records a subtree tier change.
func (st *Site) traceTier(b *Broadcast, event string) {
	st.trace(func() telemetry.Event { return b.event(event, b.Rate()) })
}
