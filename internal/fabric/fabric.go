// Package fabric models the cell-switched network of the Pegasus
// architecture (§2, Figs 1 and 4): point-to-point links with finite rate
// and propagation delay, and Fairisle-style ATM switches with per-port
// virtual-circuit routing tables and output queueing.
//
// The model is cell-accurate: every cell occupies a link for
// 424 bits / rate seconds of virtual time, and contention for an output
// port appears as queueing delay, exactly the mechanism behind the paper's
// latency and jitter arguments. Per-cell timing is computed
// arithmetically rather than with one simulator event per transition:
// a cell costs one delivery event end to end per link, and a whole AAL5
// cell train sent with SendTrain or SendBurst costs one delivery event
// per link regardless of length — the batching that lets site-scale runs
// model hundreds of concurrent streams.
//
// A train in flight is an atm.Train descriptor, not cells: links queue
// and deliver it by value, a switch rewrites its VCI with one store and
// fans it out by copying the descriptor, and nothing copies, pads or
// checksums payload bytes. Cells are materialised (Train.Cells) only
// where something looks at them — a cell-accurate link, a sink that
// only implements Handler, the Recorder. The payload body a train
// borrows is immutable while any copy of it is in flight.
//
// Burst semantics: a burst's cells arrive back to back at First,
// First+Gap, First+2*Gap, ... and the delivery callback runs at the last
// cell's arrival instant. On an uncontended path the computed per-cell
// times are identical to the cell-by-cell model (cut-through switching
// included). Under output-port contention the burst reserves its output
// link as one unit, a conservative approximation: competing traffic
// waits for the whole train rather than interleaving cell by cell.
// Experiments that measure cell-level interleaving under contention
// should call SetCellAccurate(true) on the links in the contended path
// (or keep using Send, which is always exact), at the cost of one event
// per cell.
package fabric

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/sim"
)

// Handler consumes cells delivered by a link.
type Handler interface {
	HandleCell(c atm.Cell)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(atm.Cell)

// HandleCell calls f(c).
func (f HandlerFunc) HandleCell(c atm.Cell) { f(c) }

// Burst is an AAL5 cell train delivered as one unit. Cell i of Train
// arrives at First + i*Gap; the delivering event fires at the last cell's
// arrival. Train.VCI is the circuit on the delivering link.
type Burst struct {
	Train atm.Train
	First sim.Time
	Gap   sim.Duration
}

// BurstHandler is implemented by sinks that can consume a whole cell
// train in one call. Sinks that only implement Handler still work: the
// link unrolls the burst cell by cell at the last cell's arrival
// instant, which preserves frame-level timing (AAL5 consumers act on
// frame completion, which is the last cell) but collapses the
// intermediate cells' arrival times to that instant.
type BurstHandler interface {
	HandleBurst(b Burst)
}

// Common link rates (bits per second). The Pegasus testbed ran 100 Mb/s
// TAXI links; the display's framebuffer port runs at 960 Mb/s (Fig 3).
const (
	Rate100M = 100_000_000
	Rate160M = 160_000_000
	Rate960M = 960_000_000
)

// LinkStats counts traffic through a link.
type LinkStats struct {
	Sent      int64 // cells accepted for transmission
	Delivered int64 // cells handed to the sink
	Dropped   int64 // cells lost to queue overflow
}

// delivery is a serialised transmission unit awaiting its arrival event.
// first and gap are only meaningful for bursts: a single cell's arrival
// time is its delivery event's fire time.
type delivery struct {
	cell  atm.Cell
	train atm.Train // non-empty for a burst unit
	first sim.Time  // arrival time of the first cell at the sink
	gap   sim.Duration
}

// Link is a unidirectional cell pipe with serialisation delay, propagation
// delay and a bounded transmit queue.
//
// The transmit schedule is kept as arithmetic (freeAt) rather than as a
// queue of events: accepting a cell or a burst immediately computes when
// its serialisation completes and schedules the single delivery event.
type Link struct {
	sim   *sim.Sim
	rate  int64 // bits per second
	ct    sim.Duration
	prop  sim.Duration
	limit int // max queued cells; 0 means unbounded
	sink  Handler
	bsink BurstHandler // non-nil when sink understands bursts

	cellAccurate bool

	// freeAt is when the serialiser finishes everything accepted so far.
	freeAt sim.Time
	// pending counts cells accepted but not yet delivered.
	pending int

	// flight holds accepted units in serialisation order; the delivery
	// events pop them FIFO (delivery times are monotonic by
	// construction).
	flight []delivery
	head   int

	deliverF func() // bound once to avoid per-cell closures

	Stats LinkStats
}

// NewLink builds a link of the given bit rate and propagation delay
// delivering to sink. capacity bounds the transmit queue in cells
// (0 = unbounded).
func NewLink(s *sim.Sim, rate int64, prop sim.Duration, capacity int, sink Handler) *Link {
	if rate <= 0 {
		panic("fabric: link rate must be positive")
	}
	if sink == nil {
		panic("fabric: link needs a sink")
	}
	l := &Link{sim: s, rate: rate, prop: prop, limit: capacity, sink: sink}
	l.ct = sim.Duration(int64(atm.CellSize*8) * int64(sim.Second) / rate)
	l.bsink, _ = sink.(BurstHandler)
	l.deliverF = l.deliverNext
	return l
}

// CellTime is the serialisation time of one 53-byte cell on this link.
func (l *Link) CellTime() sim.Duration { return l.ct }

// SetSink redirects delivery to a new handler. Cells already accepted
// are delivered to the new sink: the link object (and its place in any
// switch's output table) is reused rather than rebuilt, so swapping a
// port's consumer never leaves a dangling link registered with the
// simulator.
func (l *Link) SetSink(h Handler) {
	if h == nil {
		panic("fabric: link needs a sink")
	}
	l.sink = h
	l.bsink, _ = h.(BurstHandler)
}

// Rate reports the link bit rate.
func (l *Link) Rate() int64 { return l.rate }

// SetCellAccurate forces SendBurst on this link to degrade to exact
// cell-by-cell transmission — the opt-out for experiments that need
// cell-level contention and interleaving to be modelled exactly. Set it
// on every link of the contended path; Send is always exact regardless.
func (l *Link) SetCellAccurate(v bool) { l.cellAccurate = v }

// CellAccurate reports whether the batched fast path is disabled.
func (l *Link) CellAccurate() bool { return l.cellAccurate }

// QueueLen reports cells waiting to be serialised (excluding the one on
// the wire). With nonzero propagation delay, cells still propagating
// count too: the schedule is arithmetic, so the link only learns a cell
// is done at delivery.
func (l *Link) QueueLen() int {
	if l.pending > 0 {
		return l.pending - 1
	}
	return 0
}

// Send queues a cell for transmission. Cells beyond the queue capacity
// are dropped and counted.
func (l *Link) Send(c atm.Cell) {
	l.sendCellEarliest(&c, l.sim.Now())
}

// slot extends the flight ring by one entry and returns it for the
// caller to fill. Recycled entries always have an empty train (cleared
// at delivery), so a single-cell unit only writes the cell.
func (l *Link) slot() *delivery {
	if len(l.flight) < cap(l.flight) {
		l.flight = l.flight[:len(l.flight)+1]
	} else {
		l.flight = append(l.flight, delivery{})
	}
	return &l.flight[len(l.flight)-1]
}

// SendTrain queues a whole AAL5 cell train as a single transmission unit
// costing one event. The train's body is borrowed until the last sink
// has seen it and must not be written meanwhile (see atm.Train). On a
// cell-accurate link it degrades to Send per materialised cell.
//
// A capacity limit applies to the train all-or-nothing: the whole burst
// is accepted while pending cells are within the limit (briefly
// overshooting it by the train length) and dropped whole otherwise —
// unlike the exact per-cell model, which drops exactly the overflow.
// Bounded-queue overflow experiments should use cell-accurate mode.
func (l *Link) SendTrain(t atm.Train) {
	l.sendBurstShaped(t, l.sim.Now(), 0)
}

// SendBurst is SendTrain for already materialised cells on one circuit
// (one Segment result, or several back to back). The slice is borrowed
// like a train body: the sender must not write it again, and sinks see
// it read-only — after a switch rewrote the circuit, as a copy.
func (l *Link) SendBurst(cells []atm.Cell) {
	l.SendTrain(atm.WrapCells(cells))
}

// sendBurstShaped queues a cell train whose cells become available for
// serialisation at earliest, earliest+gap, ... — how a switch forwards a
// train that is still arriving on an input link (cut-through). earliest
// may be in the past relative to the current instant (the train started
// arriving before its last cell landed); the arithmetic keeps every
// computed time consistent and every scheduled event in the future.
func (l *Link) sendBurstShaped(t atm.Train, earliest sim.Time, gap sim.Duration) {
	if t.Len() == 0 {
		return
	}
	if l.cellAccurate {
		cells := t.Cells()
		now := l.sim.Now()
		if gap <= 0 && earliest <= now {
			// Origin send: the whole train is available now.
			for _, c := range cells {
				l.Send(c)
			}
			return
		}
		// Forwarded train: cell i only clears the upstream fabric at
		// earliest + i*gap; pace the Sends so a faster output link
		// cannot transmit cells before they have arrived.
		for i := range cells {
			ti := earliest + sim.Time(i)*gap
			if ti <= now {
				l.Send(cells[i])
			} else {
				c := cells[i]
				l.sim.Post(ti, func() { l.Send(c) })
			}
		}
		return
	}
	if due, ok := l.queueBurst(&t, earliest, gap); ok {
		l.sim.Post(due, l.deliverF)
	}
}

// queueBurst reserves the link for a cell train — serialisation slot,
// flight-ring entry, stats — and returns the delivery instant without
// scheduling the delivery event. ok is false when the train was
// dropped at the capacity limit. The caller must arrange for exactly
// one deliverNext per accepted train at the returned instant (Post
// l.deliverF, or a coalesced event delivering several links at once);
// a link's due times are strictly increasing, so FIFO ring order and
// event order agree. Fast path only: the caller handles cell-accurate
// links.
func (l *Link) queueBurst(t *atm.Train, earliest sim.Time, gap sim.Duration) (sim.Time, bool) {
	n := t.Len()
	if l.limit > 0 && l.pending > l.limit {
		l.Stats.Dropped += int64(n)
		return 0, false
	}
	l.Stats.Sent += int64(n)
	start := l.freeAt
	if earliest > start {
		start = earliest
	}
	g := l.ct
	if gap > g {
		g = gap // arrival-paced: a faster output can't outrun the input
	}
	firstEnd := start + l.ct
	end := firstEnd + sim.Duration(n-1)*g
	l.freeAt = end
	l.pending += n
	d := l.slot()
	d.train, d.first, d.gap = *t, firstEnd+l.prop, g
	return end + l.prop, true
}

// deliverNext hands the oldest in-flight unit to the sink. Delivery
// events fire in FIFO order, so the front of the ring is always the one
// due now.
func (l *Link) deliverNext() {
	d := &l.flight[l.head]
	l.head++
	if n := d.train.Len(); n > 0 {
		l.pending -= n
		l.Stats.Delivered += int64(n)
		b := Burst{Train: d.train, First: d.first, Gap: d.gap}
		d.train = atm.Train{} // marks the slot a single-cell one; drops the borrowed body
		if l.bsink != nil {
			l.bsink.HandleBurst(b)
		} else {
			for _, c := range b.Train.Cells() {
				l.sink.HandleCell(c)
			}
		}
	} else {
		l.pending--
		l.Stats.Delivered++
		l.sink.HandleCell(d.cell)
	}
	if l.head == len(l.flight) {
		l.flight = l.flight[:0]
		l.head = 0
	} else if l.head > 1024 && l.head*2 > len(l.flight) {
		n := copy(l.flight, l.flight[l.head:])
		// Clear vacated slots: slot() reuses them without zeroing and
		// relies on their trains being empty.
		for i := n; i < len(l.flight); i++ {
			l.flight[i].train = atm.Train{}
		}
		l.flight = l.flight[:n]
		l.head = 0
	}
}

// routeKey identifies an incoming circuit at a switch.
type routeKey struct {
	port int
	vci  atm.VCI
}

// routeVal is the outgoing side of a routing-table entry.
type routeVal struct {
	port int
	vci  atm.VCI
}

// SwitchStats counts switch-level events. Counters are kept per input
// port (each port belongs to one partition); Switch.Stats sums them.
type SwitchStats struct {
	Switched  int64 // cells forwarded
	Unrouted  int64 // cells with no routing entry (dropped)
	NoOutport int64 // cells routed to a port with no attached link
}

// add accumulates o into s.
func (s *SwitchStats) add(o *SwitchStats) {
	s.Switched += o.Switched
	s.Unrouted += o.Unrouted
	s.NoOutport += o.NoOutport
}

// Switch is an output-queued ATM switch. Each input cell is looked up in
// the per-(port,VCI) routing table, its VCI rewritten, and after the
// fabric transit delay it is queued on the output port's link.
//
// The paper's key architectural point (§2) is that the workstation manages
// this table, so streams flow device-to-device without touching any CPU.
//
// Partitioning: a switch is the one object that spans partitions. Each
// input port carries its own partition context (see portIn), the routing
// table is read-only during lookahead windows (Route/Unroute run in
// global context only), and forwarding onto a link owned by another
// partition goes through sim.Cross with the fabric + serialisation +
// propagation latency as the timestamp — which is exactly the cluster's
// lookahead, so the conservative window is always safe.
type Switch struct {
	sim         *sim.Sim
	name        string
	fabricDelay sim.Duration
	outputs     []*Link
	routes      map[routeKey][]routeVal
	ins         []*portIn
}

// NewSwitch builds a switch with nports ports and the given per-cell
// fabric transit delay.
func NewSwitch(s *sim.Sim, name string, nports int, fabricDelay sim.Duration) *Switch {
	if nports <= 0 {
		panic("fabric: switch needs at least one port")
	}
	return &Switch{
		sim:         s,
		name:        name,
		fabricDelay: fabricDelay,
		outputs:     make([]*Link, nports),
		routes:      make(map[routeKey][]routeVal),
		ins:         make([]*portIn, nports),
	}
}

// Name returns the switch's name (for diagnostics).
func (sw *Switch) Name() string { return sw.name }

// Stats sums the per-input-port forwarding counters. Call it in global
// context (or after a run), not from another partition's events.
func (sw *Switch) Stats() SwitchStats {
	var t SwitchStats
	for _, p := range sw.ins {
		if p != nil {
			t.add(&p.stats)
		}
	}
	return t
}

// Ports reports the port count.
func (sw *Switch) Ports() int { return len(sw.outputs) }

// AttachOutput connects the transmit side of port to link.
func (sw *Switch) AttachOutput(port int, l *Link) {
	sw.checkPort(port)
	sw.outputs[port] = l
}

// Output returns the link attached to a port's transmit side, or nil.
func (sw *Switch) Output(port int) *Link {
	sw.checkPort(port)
	return sw.outputs[port]
}

// portIn is the receive side of one switch port. It is the per-port
// partition context: it knows which Sim the feeding link (and therefore
// the node behind it) belongs to, and it owns the port-local mutable
// state — the one-entry route cache and the forwarding counters — so
// input ports on different partitions never write shared memory.
type portIn struct {
	sw   *Switch
	port int
	sim  *sim.Sim

	// One-entry route cache: streams are bursty, so consecutive cells
	// overwhelmingly share a circuit. Invalidated by Route/Unroute.
	cacheKey routeKey
	cacheVal []routeVal

	stats SwitchStats
}

// HandleCell forwards one arriving cell through the switch.
func (p *portIn) HandleCell(c atm.Cell) { p.sw.receive(p, &c) }

// HandleBurst forwards an arriving cell train through the switch.
func (p *portIn) HandleBurst(b Burst) { p.sw.receiveBurst(p, &b) }

// In returns the handler for cells arriving on the given input port; wire
// it as the sink of the link feeding this switch. The port runs on the
// switch's own Sim; use BindIn when the feeding link belongs to another
// partition.
func (sw *Switch) In(port int) Handler {
	return sw.BindIn(port, sw.sim)
}

// BindIn returns the handler for cells arriving on the given input port,
// bound to the partition Sim that owns the feeding link. Handlers are
// memoised per port; binding an already-bound port to a different Sim
// rebinds it (legal only in global context).
func (sw *Switch) BindIn(port int, s *sim.Sim) Handler {
	sw.checkPort(port)
	p := sw.ins[port]
	if p == nil {
		p = &portIn{sw: sw, port: port, sim: s}
		sw.ins[port] = p
	} else {
		p.sim = s
	}
	return p
}

// Route installs a routing entry: cells arriving on inPort with circuit
// inVCI leave on outPort carrying outVCI. Calling Route again for the
// same input adds another leaf, forming a point-to-multipoint circuit
// (how the TV-director application feeds a preview window and the file
// server from one camera).
func (sw *Switch) Route(inPort int, inVCI atm.VCI, outPort int, outVCI atm.VCI) {
	sw.checkPort(inPort)
	sw.checkPort(outPort)
	k := routeKey{inPort, inVCI}
	sw.routes[k] = append(sw.routes[k], routeVal{outPort, outVCI})
	sw.invalidate()
}

// UnrouteLeaf prunes a single output leg from a point-to-multipoint
// entry, identified by its output port and outgoing VCI — how a
// multicast tree sheds one branch while the rest keep forwarding. The
// whole entry is removed when the last leaf goes. It reports whether a
// matching leg existed. Like Route/Unroute, legal only in global
// context: the per-port route caches are invalidated so no input keeps
// forwarding to the pruned leg, even mid-stream.
func (sw *Switch) UnrouteLeaf(inPort int, inVCI atm.VCI, outPort int, outVCI atm.VCI) bool {
	k := routeKey{inPort, inVCI}
	leaves := sw.routes[k]
	for i := range leaves {
		if leaves[i].port != outPort || leaves[i].vci != outVCI {
			continue
		}
		// Copy-on-prune: an input port's cache (or a forwarding event
		// earlier this instant) may still hold the old slice; never
		// mutate it in place.
		next := make([]routeVal, 0, len(leaves)-1)
		next = append(next, leaves[:i]...)
		next = append(next, leaves[i+1:]...)
		if len(next) == 0 {
			delete(sw.routes, k)
		} else {
			sw.routes[k] = next
		}
		sw.invalidate()
		return true
	}
	return false
}

// Unroute removes a routing entry; it reports whether one existed.
func (sw *Switch) Unroute(inPort int, inVCI atm.VCI) bool {
	k := routeKey{inPort, inVCI}
	_, ok := sw.routes[k]
	delete(sw.routes, k)
	sw.invalidate()
	return ok
}

// invalidate drops every port's route cache after a table change. Table
// changes happen only in global context (all partitions quiescent), so
// touching every port's cache here is race-free.
func (sw *Switch) invalidate() {
	for _, p := range sw.ins {
		if p != nil {
			p.cacheVal = nil
		}
	}
}

// Routed reports whether a circuit is routed from the given input port.
func (sw *Switch) Routed(inPort int, inVCI atm.VCI) bool {
	_, ok := sw.routes[routeKey{inPort, inVCI}]
	return ok
}

// Leaves reports the number of output legs routed for a circuit — the
// fan-out of a point-to-multipoint entry, used by teardown tests to
// prove no duplicate leaves leak.
func (sw *Switch) Leaves(inPort int, inVCI atm.VCI) int {
	return len(sw.routes[routeKey{inPort, inVCI}])
}

// RouteEntries reports the number of installed routing-table entries.
func (sw *Switch) RouteEntries() int { return len(sw.routes) }

// lookup resolves a circuit through the port's one-entry cache. The
// routes map itself is only read here; writes (Route/Unroute) happen in
// global context, so concurrent lookups from many ports are safe.
func (p *portIn) lookup(k routeKey) []routeVal {
	if p.cacheVal != nil && p.cacheKey == k {
		return p.cacheVal
	}
	leaves := p.sw.routes[k]
	if leaves != nil {
		p.cacheKey, p.cacheVal = k, leaves
	}
	return leaves
}

func (sw *Switch) receive(p *portIn, c *atm.Cell) {
	leaves := p.lookup(routeKey{p.port, c.VCI})
	if leaves == nil {
		p.stats.Unrouted++
		return
	}
	// The fabric transit delay folds into the output link's earliest
	// serialisation start — no event per cell.
	now := p.sim.Now()
	earliest := now + sw.fabricDelay
	if len(leaves) == 1 {
		v := &leaves[0]
		out := sw.outputs[v.port]
		if out == nil {
			p.stats.NoOutport++
			return
		}
		p.stats.Switched++
		if out.sim == p.sim {
			inVCI := c.VCI
			c.VCI = v.vci
			out.sendCellEarliest(c, earliest)
			c.VCI = inVCI
			return
		}
		sw.crossCell(p, out, c, v.vci, now, earliest)
		return
	}
	for i := range leaves {
		v := &leaves[i]
		out := sw.outputs[v.port]
		if out == nil {
			p.stats.NoOutport++
			continue
		}
		p.stats.Switched++
		if out.sim == p.sim {
			cc := *c
			cc.VCI = v.vci
			out.sendCellEarliest(&cc, earliest)
			continue
		}
		sw.crossCell(p, out, c, v.vci, now, earliest)
	}
}

// crossCell forwards one cell onto a link owned by another partition.
// The earliest the destination can observe any effect is the cell's own
// uncontended arrival — now + fabric transit + serialisation +
// propagation — which is at least the cluster lookahead, so the message
// timestamp never lands inside the current window. The closure then
// replays the send on the owner's timeline; link contention (freeAt)
// only pushes the delivery later, never earlier.
func (sw *Switch) crossCell(p *portIn, out *Link, c *atm.Cell, vci atm.VCI, now sim.Time, earliest sim.Time) {
	cc := *c
	cc.VCI = vci
	p.sim.Cross(out.sim, now+sw.fabricDelay+out.ct+out.prop, func() {
		out.sendCellEarliest(&cc, earliest)
	})
}

// sendCellEarliest is Send with a lower bound on the serialisation start
// (the switch's fabric transit delay). The cell is copied into the
// flight ring; the pointer is not retained.
func (l *Link) sendCellEarliest(c *atm.Cell, earliest sim.Time) {
	if l.limit > 0 && l.pending > l.limit {
		l.Stats.Dropped++
		return
	}
	l.Stats.Sent++
	start := l.freeAt
	if earliest > start {
		start = earliest
	}
	end := start + l.ct
	l.freeAt = end
	l.pending++
	l.slot().cell = *c
	l.sim.Post(end+l.prop, l.deliverF)
}

// receiveBurst forwards the train in b, which the caller has already
// copied off the input link: every descriptor below is a value copy of
// it, never a reference into another link's ring.
func (sw *Switch) receiveBurst(p *portIn, b *Burst) {
	n := b.Train.Len()
	leaves := p.lookup(routeKey{p.port, b.Train.VCI})
	if leaves == nil {
		p.stats.Unrouted += int64(n)
		return
	}
	// Cut-through: the k-th cell clears the fabric at its own arrival +
	// fabricDelay; the output link's pacing floor is the input spacing.
	first := b.First + sw.fabricDelay
	// Multicast fan-out coalescing: same-partition leaves whose copies
	// mature at the same instant — idle symmetric output links, the
	// steady-state CBR broadcast geometry — share one delivery event, so
	// a cell train costs one event per switch, not one per viewer port.
	// Leaves under differing contention keep their own exact events. The
	// group is a first link plus the rest, so a lone leaf (every unicast
	// train) allocates nothing.
	var (
		coDue   sim.Time
		coFirst *Link
		coRest  []*Link
	)
	for _, v := range leaves {
		out := sw.outputs[v.port]
		if out == nil {
			p.stats.NoOutport += int64(n)
			continue
		}
		p.stats.Switched += int64(n)
		// The VCI rewrite is this one store; each leaf then takes its own
		// copy of the descriptor (into its ring slot or cross closure).
		b.Train.VCI = v.vci
		if out.sim != p.sim {
			sw.crossTrain(p, out, b.Train, first, b.Gap)
			continue
		}
		if out.cellAccurate {
			out.sendBurstShaped(b.Train, first, b.Gap)
			continue
		}
		due, ok := out.queueBurst(&b.Train, first, b.Gap)
		if !ok {
			continue
		}
		if coFirst != nil && due != coDue {
			p.postDeliveries(coDue, coFirst, coRest)
			coFirst, coRest = nil, nil
		}
		if coFirst == nil {
			coFirst, coDue = out, due
		} else {
			coRest = append(coRest, out)
		}
	}
	if coFirst != nil {
		p.postDeliveries(coDue, coFirst, coRest)
	}
}

// crossTrain forwards a train onto a link owned by another partition.
// The calling delivery event fired at the last cell's arrival (now =
// First + (n-1)*Gap), and the replayed send's earliest completion is
// first cell + fabric + ct + last cell's pacing + prop ≥ now + fabric +
// ct + prop — the cluster lookahead — so the timestamp is safe, and the
// closure (which holds the train by value) schedules nothing before it.
func (sw *Switch) crossTrain(p *portIn, out *Link, t atm.Train, first sim.Time, gap sim.Duration) {
	p.sim.Cross(out.sim, p.sim.Now()+sw.fabricDelay+out.ct+out.prop, func() {
		out.sendBurstShaped(t, first, gap)
	})
}

// postDeliveries schedules the one event that delivers the trains queued
// on first and rest, all due at the same instant.
func (p *portIn) postDeliveries(due sim.Time, first *Link, rest []*Link) {
	if len(rest) == 0 {
		p.sim.Post(due, first.deliverF)
		return
	}
	p.sim.Post(due, func() {
		first.deliverNext()
		for _, l := range rest {
			l.deliverNext()
		}
	})
}

func (sw *Switch) checkPort(p int) {
	if p < 0 || p >= len(sw.outputs) {
		panic(fmt.Sprintf("fabric: switch %q has no port %d", sw.name, p))
	}
}

// Recorder is a Handler that records delivery times, used by tests and by
// the experiment harnesses to measure end-to-end cell latency. It is
// burst-aware: cells of a burst are recorded with their computed
// arrival times, so cell-level measurements stay exact on the fast path.
type Recorder struct {
	sim   *sim.Sim
	Cells []atm.Cell
	Times []sim.Time
}

// NewRecorder returns a Recorder stamping deliveries with s's clock.
func NewRecorder(s *sim.Sim) *Recorder { return &Recorder{sim: s} }

// HandleCell records the cell and its arrival time.
func (r *Recorder) HandleCell(c atm.Cell) {
	r.Cells = append(r.Cells, c)
	r.Times = append(r.Times, r.sim.Now())
}

// HandleBurst records every cell of the train with its arithmetic
// arrival time.
func (r *Recorder) HandleBurst(b Burst) {
	for i, c := range b.Train.Cells() {
		r.Cells = append(r.Cells, c)
		r.Times = append(r.Times, b.First+sim.Time(i)*b.Gap)
	}
}
