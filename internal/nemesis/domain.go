// Package nemesis implements the Nemesis microkernel of §3 of the paper:
// schedulable domains sharing a single virtual address space with
// per-domain protection, the activation-based virtual-processor model,
// counted events with synchronous and asynchronous signalling, and
// kernel-privileged sections.
//
// Domains are modelled as goroutines coupled to the discrete-event
// simulator through a strict request/grant protocol: domain code runs in
// zero virtual time between kernel requests, and only Consume advances the
// virtual clock. Exactly one goroutine is ever runnable at a time, so the
// simulation stays deterministic.
package nemesis

import (
	"fmt"
	"runtime"

	"repro/internal/sim"
)

// DomainState is the kernel's view of a domain.
type DomainState int

// Domain states.
const (
	// Runnable domains are eligible for scheduling.
	Runnable DomainState = iota
	// Running is the domain currently holding the CPU.
	Running
	// Blocked domains wait for events or timers.
	Blocked
	// Dead domains have exited.
	Dead
)

func (s DomainState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Dead:
		return "dead"
	}
	return "invalid"
}

// SchedParams is the scheduling contract a domain registers with the
// kernel (§3.3): a guarantee of Slice CPU time in every Period, or
// best-effort execution. Weight is used by the priority baseline
// scheduler and as a tie-breaker for slack time.
type SchedParams struct {
	Slice      sim.Duration
	Period     sim.Duration
	BestEffort bool
	Weight     int
}

// Guaranteed reports whether the params carry a {slice, period} contract.
func (p SchedParams) Guaranteed() bool {
	return !p.BestEffort && p.Slice > 0 && p.Period > 0
}

// reqKind enumerates the kernel requests a domain can issue.
type reqKind int

const (
	reqStart reqKind = iota // synthetic: first activation / bare resume
	reqConsume
	reqYield
	reqWait
	reqWaitParked // synthetic: blocked Wait awaiting event delivery
	reqSleep
	reqSend
	reqEnterKPS
	reqLeaveKPS
	reqExit
)

// request is one domain→kernel call.
type request struct {
	kind  reqKind
	dur   sim.Duration  // consume / sleep
	ch    *EventChannel // send
	count int64         // send
}

// Pending reports events collected by Wait or Poll.
type Pending struct {
	Ch    *EventChannel
	Count int64
}

// grant is one kernel→domain reply.
type grant struct {
	granted sim.Duration
	events  []Pending
	kill    bool
}

// DomainStats accumulates per-domain accounting, visible to QoS managers.
type DomainStats struct {
	Used        sim.Duration // CPU time consumed
	Activations int64        // times the domain was given the CPU
	Preempted   int64
	Yields      int64
	Waits       int64
}

// Domain is a Nemesis schedulable entity.
type Domain struct {
	ID     int
	Name   string
	Params SchedParams

	// SchedData is scratch space for the scheduler implementation.
	SchedData any

	Stats DomainStats

	kernel *Kernel
	state  DomainState

	req    chan request
	resume chan grant

	// parked is the request the domain is blocked on, awaiting a reply.
	// nil means the domain has not yet been started.
	parked *request

	inKPS           int // KPS nesting depth
	deferredPreempt bool
	killed          bool // unwound by Kill/Shutdown, not by its own exit

	channels []*EventChannel // receive ends
	segs     map[*Segment]Rights

	sleeping bool
}

// State reports the kernel's view of the domain.
func (d *Domain) State() DomainState { return d.state }

// String identifies the domain in traces.
func (d *Domain) String() string { return fmt.Sprintf("dom%d(%s)", d.ID, d.Name) }

// collectEvents drains pending event counts into a Pending slice.
func (d *Domain) collectEvents() []Pending {
	var out []Pending
	for _, ch := range d.channels {
		if ch.pending > 0 {
			out = append(out, Pending{Ch: ch, Count: ch.pending})
			ch.pending = 0
		}
	}
	return out
}

// Ctx is the in-domain API: the system-call surface domain code uses.
// A Ctx is only valid inside the domain function it was passed to.
type Ctx struct {
	d *Domain
	k *Kernel
}

// Domain returns the domain this context belongs to.
func (c *Ctx) Domain() *Domain { return c.d }

// Kernel returns the owning kernel.
func (c *Ctx) Kernel() *Kernel { return c.k }

// Now returns the current virtual time.
func (c *Ctx) Now() sim.Time { return c.k.sim.Now() }

// do issues a request and parks until the kernel replies.
func (c *Ctx) do(r request) grant {
	c.d.req <- r
	g := <-c.d.resume
	if g.kill {
		runtime.Goexit()
	}
	return g
}

// Consume burns d nanoseconds of CPU time. It returns when the full
// amount has been executed, which may span several scheduling grants if
// the domain is preempted or exhausts its slice.
func (c *Ctx) Consume(d sim.Duration) {
	for d > 0 {
		g := c.do(request{kind: reqConsume, dur: d})
		d -= g.granted
	}
}

// Yield voluntarily releases the CPU; the domain stays runnable.
func (c *Ctx) Yield() {
	c.do(request{kind: reqYield})
}

// Wait blocks until at least one event is pending on any of the domain's
// receive channels, then returns and clears the pending counts. This is
// Nemesis's only blocking primitive ("suspend", §3.2).
func (c *Ctx) Wait() []Pending {
	g := c.do(request{kind: reqWait})
	return g.events
}

// Poll returns pending events without blocking (may be empty).
func (c *Ctx) Poll() []Pending {
	return c.d.collectEvents()
}

// Sleep blocks the domain for d nanoseconds of virtual time.
func (c *Ctx) Sleep(d sim.Duration) {
	if d <= 0 {
		return
	}
	c.do(request{kind: reqSleep, dur: d})
}

// Send signals n events on ch, whose transmit end must belong to this
// domain. On a synchronous channel the processor is handed directly to
// the receiving domain (§3.4); on an asynchronous channel the sender
// continues to run.
func (c *Ctx) Send(ch *EventChannel, n int64) {
	if ch.From != c.d {
		panic(fmt.Sprintf("nemesis: %v sending on channel owned by %v", c.d, ch.From))
	}
	if n <= 0 {
		panic("nemesis: event count must be positive")
	}
	c.do(request{kind: reqSend, ch: ch, count: n})
}

// KPS runs fn inside a kernel-privileged section (§3.5): the domain
// cannot be preempted while fn runs, and — mirroring the paper's
// TRY...FINALLY construct — kernel mode is left even if fn panics, before
// the panic propagates to handlers outside the section.
func (c *Ctx) KPS(fn func()) {
	c.do(request{kind: reqEnterKPS})
	defer func() { c.do(request{kind: reqLeaveKPS}) }()
	fn()
}

// InKPS reports whether the domain is currently in a privileged section.
func (c *Ctx) InKPS() bool { return c.d.inKPS > 0 }
