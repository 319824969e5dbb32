package nemesis

import (
	"repro/internal/sim"
)

// NoEvent is the Decision.NextEvent value meaning "nothing scheduled".
const NoEvent sim.Time = -1

// Decision is a scheduler's answer to "who runs now".
type Decision struct {
	// D is the domain to run; nil means idle.
	D *Domain
	// Budget is how long D may hold the CPU before the next mandatory
	// scheduling point.
	Budget sim.Duration
	// NextEvent is the next time the scheduler wants control even if
	// nothing wakes (period boundaries); NoEvent if none. Consulted only
	// when D is nil.
	NextEvent sim.Time
}

// Scheduler is the pluggable domain scheduling policy (§3.3). The kernel
// calls it with the virtual time of each transition; implementations
// must be deterministic.
type Scheduler interface {
	// Add registers a new, runnable domain.
	Add(d *Domain, now sim.Time)
	// Remove deregisters an exited domain.
	Remove(d *Domain, now sim.Time)
	// Wake marks a blocked domain runnable.
	Wake(d *Domain, now sim.Time)
	// Block marks a domain no longer runnable.
	Block(d *Domain, now sim.Time)
	// Pick chooses the next domain and its budget.
	Pick(now sim.Time) Decision
	// Charge accounts used CPU to d.
	Charge(d *Domain, used sim.Duration, now sim.Time)
	// Preempts reports whether waking cand should preempt running cur.
	Preempts(cand, cur *Domain, now sim.Time) bool
}

// Config carries the kernel cost model.
type Config struct {
	// SwitchCost is charged whenever the CPU moves between domains.
	SwitchCost sim.Duration
	// FlushCost is the extra per-switch cost of flushing virtually
	// indexed caches, paid only without a single address space (§3.1).
	FlushCost sim.Duration
	// SingleAddressSpace selects the Nemesis memory model; disabling it
	// models a conventional per-process address-space system for the E6
	// comparison.
	SingleAddressSpace bool
}

// KernelStats aggregates kernel-level accounting.
type KernelStats struct {
	Dispatches  int64
	Switches    int64 // CPU moved to a different domain
	Preemptions int64
	Donations   int64 // sync-send processor handovers
	IdleNS      sim.Duration
	SwitchNS    sim.Duration // total context-switch overhead
}

// Kernel is a Nemesis instance bound to one simulated CPU.
type Kernel struct {
	sim   *sim.Sim
	cfg   Config
	sched Scheduler

	domains  []*Domain
	nextDom  int
	nextChan int
	nextVA   uint64

	cur      *Domain
	chargeTo *Domain
	budget   sim.Duration

	grantEv    *sim.Event
	grantStart sim.Time
	grantWant  sim.Duration
	grantUse   sim.Duration

	needResched bool

	idle      bool
	idleSince sim.Time
	idleWake  *sim.Event

	lastRun *Domain
	stopped bool

	Stats KernelStats
}

// NewKernel builds a kernel on the given simulator with the given
// scheduling policy.
func NewKernel(s *sim.Sim, cfg Config, sched Scheduler) *Kernel {
	if cfg.SingleAddressSpace {
		// no flush applies
	}
	return &Kernel{sim: s, cfg: cfg, sched: sched, nextVA: 1 << 32}
}

// Sim returns the simulator the kernel runs on.
func (k *Kernel) Sim() *sim.Sim { return k.sim }

// Scheduler returns the installed scheduling policy.
func (k *Kernel) Scheduler() Scheduler { return k.sched }

// Domains returns all domains ever spawned, including ones that exited
// on their own; domains torn down with Kill are removed.
func (k *Kernel) Domains() []*Domain { return k.domains }

// Spawn creates a domain running fn under the given scheduling contract.
// The domain becomes runnable immediately; fn starts when first
// dispatched.
func (k *Kernel) Spawn(name string, p SchedParams, fn func(*Ctx)) *Domain {
	d := &Domain{
		ID:     k.nextDom,
		Name:   name,
		Params: p,
		kernel: k,
		state:  Runnable,
		req:    make(chan request),
		resume: make(chan grant),
	}
	k.nextDom++
	k.domains = append(k.domains, d)
	go k.domainMain(d, fn)
	k.sched.Add(d, k.sim.Now())
	k.sim.At(k.sim.Now(), func() { k.afterWake(d) })
	return d
}

func (k *Kernel) domainMain(d *Domain, fn func(*Ctx)) {
	g := <-d.resume // initial activation
	if g.kill {
		return
	}
	defer func() {
		// A panic in domain code must not deadlock the kernel thread;
		// the domain exits (tests can observe Dead state). KPS cleanup
		// already ran via Ctx.KPS's deferred LeaveKPS. A killed domain's
		// goroutine unwinds via Goexit: the kernel already retired it, so
		// sending an exit request would block against nobody forever.
		_ = recover()
		if d.killed {
			return
		}
		d.req <- request{kind: reqExit}
	}()
	fn(&Ctx{d: d, k: k})
}

// converse hands the CPU to the domain goroutine for a zero-virtual-time
// step and returns its next request. The kernel thread blocks only for
// the real time the domain code takes between requests.
func (k *Kernel) converse(d *Domain, g grant) request {
	d.resume <- g
	return <-d.req
}

// wake transitions a blocked domain to runnable and reconsiders the CPU.
func (k *Kernel) wake(d *Domain) {
	if k.stopped || d.state == Dead {
		return
	}
	if d.state == Blocked {
		d.state = Runnable
		d.sleeping = false
		k.sched.Wake(d, k.sim.Now())
	}
	k.afterWake(d)
}

// afterWake decides whether a newly runnable domain gets the CPU.
func (k *Kernel) afterWake(d *Domain) {
	if k.stopped || d.state == Dead {
		return
	}
	if k.cur == nil {
		k.maybeDispatch()
		return
	}
	if d == k.cur {
		return
	}
	if !k.sched.Preempts(d, k.chargeTo, k.sim.Now()) {
		return
	}
	if k.cur.inKPS > 0 {
		k.cur.deferredPreempt = true
		return
	}
	if k.grantEv != nil {
		k.preemptCur()
	} else {
		// Mid-serve or in the switch-cost window: preempt at the next
		// consume boundary.
		k.needResched = true
	}
}

// preemptCur interrupts the in-flight consume grant of the running
// domain and rescheduls.
func (k *Kernel) preemptCur() {
	d := k.cur
	if !k.sim.Cancel(k.grantEv) {
		return // grant completed in this same instant; nothing to preempt
	}
	k.grantEv = nil
	used := k.sim.Now() - k.grantStart
	k.settle(used)
	d.Stats.Preempted++
	k.Stats.Preemptions++
	r := k.converse(d, grant{granted: used})
	if r.kind == reqExit {
		k.finishExit(d)
		return
	}
	k.park(d, r)
}

// park stashes a domain's pending request, makes it runnable and frees
// the CPU.
func (k *Kernel) park(d *Domain, r request) {
	rr := r
	d.parked = &rr
	d.state = Runnable
	k.releaseCPU()
}

func (k *Kernel) releaseCPU() {
	k.cur = nil
	k.chargeTo = nil
	k.grantEv = nil
	k.maybeDispatch()
}

func (k *Kernel) maybeDispatch() {
	if k.stopped || k.cur != nil {
		return
	}
	now := k.sim.Now()
	if k.idleWake != nil {
		k.sim.Cancel(k.idleWake)
		k.idleWake = nil
	}
	dec := k.sched.Pick(now)
	k.Stats.Dispatches++
	if dec.D == nil {
		if !k.idle {
			k.idle = true
			k.idleSince = now
		}
		if dec.NextEvent >= 0 {
			at := dec.NextEvent
			if at < now {
				at = now
			}
			k.idleWake = k.sim.At(at, func() {
				k.idleWake = nil
				k.maybeDispatch()
			})
		}
		return
	}
	if k.idle {
		k.Stats.IdleNS += now - k.idleSince
		k.idle = false
	}
	budget := dec.Budget
	if budget <= 0 {
		budget = 1 // defensive: schedulers should not return zero budgets
	}
	k.switchTo(dec.D, budget, dec.D)
}

// switchTo gives the CPU to d with the given budget, charging usage to
// chargeTo (which differs from d only under processor donation).
func (k *Kernel) switchTo(d *Domain, budget sim.Duration, chargeTo *Domain) {
	k.cur = d
	k.chargeTo = chargeTo
	k.budget = budget
	d.state = Running
	d.Stats.Activations++
	var cost sim.Duration
	if k.lastRun != d {
		cost = k.cfg.SwitchCost
		if !k.cfg.SingleAddressSpace {
			cost += k.cfg.FlushCost
		}
		k.Stats.Switches++
		k.Stats.SwitchNS += cost
	}
	k.lastRun = d
	if cost > 0 {
		k.sim.After(cost, func() {
			if k.cur == d && !k.stopped {
				k.serve(d)
			}
		})
		return
	}
	k.serve(d)
}

// serve resumes processing of the domain's parked (or initial) request.
func (k *Kernel) serve(d *Domain) {
	var r request
	if d.parked == nil {
		r = request{kind: reqStart}
	} else {
		r = *d.parked
		d.parked = nil
	}
	k.serveReq(d, r)
}

// serveReq is the kernel's request loop: zero-cost requests are handled
// inline; Consume schedules a grant and returns to the simulator.
func (k *Kernel) serveReq(d *Domain, r request) {
	now := func() sim.Time { return k.sim.Now() }
	for {
		switch r.kind {
		case reqStart, reqYield:
			if r.kind == reqYield {
				d.Stats.Yields++
				rr := request{kind: reqStart}
				d.parked = &rr
				d.state = Runnable
				k.releaseCPU()
				return
			}
			r = k.converse(d, grant{})

		case reqConsume:
			if k.needResched {
				// A wake during a zero-cost window may have produced a
				// better candidate: re-run the scheduler at this
				// boundary.
				k.needResched = false
				k.park(d, r)
				return
			}
			want := r.dur
			use := want
			if use > k.budget {
				use = k.budget
			}
			if d.inKPS > 0 {
				use = want // privileged sections may overrun their slice
			}
			if use <= 0 {
				k.park(d, r)
				return
			}
			k.grantStart = now()
			k.grantWant = want
			k.grantUse = use
			k.grantEv = k.sim.After(use, func() { k.grantDone(d) })
			return

		case reqWait:
			if evs := d.collectEvents(); len(evs) > 0 {
				r = k.converse(d, grant{events: evs})
				continue
			}
			d.Stats.Waits++
			d.state = Blocked
			k.sched.Block(d, now())
			rr := request{kind: reqWaitParked}
			d.parked = &rr
			k.releaseCPU()
			return

		case reqWaitParked:
			r = k.converse(d, grant{events: d.collectEvents()})

		case reqSleep:
			d.state = Blocked
			k.sched.Block(d, now())
			d.sleeping = true
			rr := request{kind: reqStart}
			d.parked = &rr
			dd := d
			k.sim.After(r.dur, func() {
				if dd.sleeping {
					k.wake(dd)
				}
			})
			k.releaseCPU()
			return

		case reqSend:
			ch := r.ch
			ch.pending += r.count
			ch.Sent += r.count
			recv := ch.To
			if recv.state == Blocked && !recv.sleeping {
				recv.state = Runnable
				k.sched.Wake(recv, now())
			}
			if ch.Sync && recv != d && recv.state == Runnable {
				// Synchronous signalling: hand the processor straight
				// to the receiver, donating the rest of our budget.
				rr := request{kind: reqStart}
				d.parked = &rr
				d.state = Runnable
				k.Stats.Donations++
				k.switchTo(recv, k.budget, k.chargeTo)
				return
			}
			if recv.state == Runnable && recv != d {
				k.needResched = k.needResched ||
					k.sched.Preempts(recv, k.chargeTo, now())
			}
			r = k.converse(d, grant{})

		case reqEnterKPS:
			d.inKPS++
			r = k.converse(d, grant{})

		case reqLeaveKPS:
			if d.inKPS > 0 {
				d.inKPS--
			}
			if d.inKPS == 0 && d.deferredPreempt {
				d.deferredPreempt = false
				d.Stats.Preempted++
				k.Stats.Preemptions++
				rr := request{kind: reqStart}
				d.parked = &rr
				d.state = Runnable
				k.releaseCPU()
				return
			}
			r = k.converse(d, grant{})

		case reqExit:
			k.finishExit(d)
			return

		default:
			panic("nemesis: unknown request kind")
		}
	}
}

// grantDone fires when a consume grant's time has elapsed.
func (k *Kernel) grantDone(d *Domain) {
	k.grantEv = nil
	k.settle(k.grantUse)
	use, want := k.grantUse, k.grantWant
	r := k.converse(d, grant{granted: use})
	if r.kind == reqExit {
		k.finishExit(d)
		return
	}
	if use < want {
		// Slice or quantum exhausted mid-consume: back to the scheduler.
		k.park(d, r)
		return
	}
	// Even with no budget left, zero-cost requests (block, send, exit)
	// are kernel work and proceed; the next Consume parks instead.
	k.serveReq(d, r)
}

// settle charges elapsed CPU time.
func (k *Kernel) settle(used sim.Duration) {
	if used <= 0 {
		return
	}
	k.sched.Charge(k.chargeTo, used, k.sim.Now())
	k.cur.Stats.Used += used
	k.budget -= used
}

func (k *Kernel) finishExit(d *Domain) {
	d.state = Dead
	k.sched.Remove(d, k.sim.Now())
	if k.cur == d {
		k.releaseCPU()
	}
}

// Kill terminates one domain from outside domain code: the domain is
// removed from the scheduler (and from Domains()), marked Dead, and its
// goroutine unwound — the per-domain form of Shutdown, for per-stream
// protocol domains that die with their session while the kernel keeps
// running. An in-flight CPU grant is cancelled uncharged; blocked,
// runnable and never-started domains are unwound where they park.
// Killing a Dead domain is a no-op.
//
// Unlike a domain that exits on its own (which stays visible in
// Domains() for post-run accounting), a killed domain is dropped from
// the kernel's domain list: sessions churn, and a graveyard growing by
// one entry per stream ever opened would be a leak.
func (k *Kernel) Kill(d *Domain) {
	if d.state == Dead {
		return
	}
	wasCur := k.cur == d
	if wasCur && k.grantEv != nil {
		k.sim.Cancel(k.grantEv)
		k.grantEv = nil
	}
	d.state = Dead
	d.sleeping = false
	d.killed = true
	k.sched.Remove(d, k.sim.Now())
	for i, x := range k.domains {
		if x == d {
			k.domains = append(k.domains[:i], k.domains[i+1:]...)
			break
		}
	}
	// The goroutine is parked on its resume channel whichever state it
	// was in (initial activation, parked request, in-flight grant): the
	// kill grant unwinds it, and the killed flag keeps its deferred exit
	// path from writing into a kernel that no longer serves it.
	d.resume <- grant{kill: true}
	if wasCur {
		k.cur = nil
		k.chargeTo = nil
		k.maybeDispatch()
	}
}

// Shutdown kills every live domain goroutine. Call it after the
// simulation run, from outside any domain code.
func (k *Kernel) Shutdown() {
	if k.stopped {
		return
	}
	k.stopped = true
	if k.grantEv != nil {
		k.sim.Cancel(k.grantEv)
		k.grantEv = nil
	}
	if k.idleWake != nil {
		k.sim.Cancel(k.idleWake)
		k.idleWake = nil
	}
	for _, d := range k.domains {
		if d.state != Dead {
			d.state = Dead
			d.killed = true
			d.resume <- grant{kill: true}
		}
	}
}
