package sim

// Partitioned (parallel) execution of the event kernel.
//
// A Cluster shards the simulation across N Sims ("partitions"), each
// with its own calendar wheel, free list and RNG stream, executed by
// the coordinator and, for windows large enough to pay for the handoff,
// worker goroutines. Synchronisation is conservative lookahead: if the
// earliest pending event anywhere is at emin, and every cross-partition
// signal takes at least L (the lookahead) of virtual time to have any
// effect on its destination, then every partition may safely execute
// all of its events strictly before the horizon
//
//	h = min(emin + L, next global callback, run bound)
//
// in parallel with the others — no message that could land inside the
// window can exist. At the window barrier the staged cross-partition
// messages are delivered in the deterministic order (time, source
// partition, source sequence), deferred barrier callbacks run, and the
// next window starts. Within a partition the strict (time, sequence)
// order of the serial kernel is preserved, so a single-partition
// cluster is bit-identical to a serial Sim.
//
// Three execution contexts follow from this design:
//
//   - Partition context: an event callback running inside a window. It
//     may touch only its own partition's state; effects on another
//     partition go through Cross with a timestamp at least L in the
//     future; work that must see several partitions quiescent is staged
//     with Defer.
//   - Barrier (global) context: deferred callbacks and CallAfter
//     callbacks run on the coordinator goroutine with every partition
//     quiescent; they may touch any partition's state and schedule
//     directly on any partition.
//   - Serial context: a Sim with no cluster (or a 1-partition cluster).
//     Cross degenerates to At, Defer runs inline, and nothing above
//     costs anything.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
)

// Scheduler is the facade call sites drive a simulation through without
// caring whether it is one serial Sim or a partitioned Cluster: both
// implement it. Code that schedules *data-plane* events keeps using the
// owning partition's *Sim directly; Scheduler carries the run loop and
// the control plane.
type Scheduler interface {
	// Now returns the current virtual time.
	Now() Time
	// Pending reports the number of queued events (cluster: all
	// partitions plus pending global callbacks).
	Pending() int
	// Fired reports the total number of executed events (cluster: all
	// partitions plus executed global callbacks).
	Fired() int64
	// Run fires events until no work remains or Stop is called.
	Run()
	// RunUntil fires events with timestamps <= t, then sets the clock
	// to t.
	RunUntil(t Time)
	// RunFor advances the simulation by d nanoseconds of virtual time.
	RunFor(d Duration)
	// CallAfter schedules fn d nanoseconds from now in global (barrier)
	// context: on a serial Sim it is an ordinary event; on a cluster it
	// runs with every partition quiescent and may touch any partition's
	// state. It must not be called from partition context.
	CallAfter(d Duration, fn func())
	// Stop halts Run/RunUntil (cluster: at the next window barrier).
	Stop()
}

// Compile-time facade checks.
var (
	_ Scheduler = (*Sim)(nil)
	_ Scheduler = (*Cluster)(nil)
)

// CallAfter schedules fn d nanoseconds from now, discarding the handle.
// On a serial Sim global context and event context are the same thing,
// so this is simply After; it exists to satisfy Scheduler.
func (s *Sim) CallAfter(d Duration, fn func()) { s.After(d, fn) }

// Partition reports this Sim's index within its Cluster (0 for a
// serial Sim).
func (s *Sim) Partition() int { return s.part }

// Rand returns the Sim's own deterministic PRNG stream. Each cluster
// partition is seeded independently at NewCluster; a serial Sim gets a
// fixed seed on first use. Use it for any randomness inside event
// callbacks so runs stay reproducible per partition count.
func (s *Sim) Rand() *Rand {
	if s.rng == nil {
		s.rng = NewRand(1)
	}
	return s.rng
}

// crossMsg is one staged cross-partition effect: fn runs on dst's
// timeline at absolute time at. src and seq order messages of equal
// timestamp deterministically.
type crossMsg struct {
	dst *Sim
	at  Time
	src int
	seq uint64
	fn  func()
}

// Cross schedules fn at absolute time at on dst's timeline — the only
// legal way for partition-context code to affect another partition. The
// timestamp must be at least the cluster's lookahead past the sender's
// current time; the barrier checks this and panics on a violation.
// Outside a window (serial Sim, global context, or dst == s) it is a
// direct dst.At.
func (s *Sim) Cross(dst *Sim, at Time, fn func()) {
	if dst == s || s.cluster == nil || !s.cluster.inWindow {
		dst.At(at, fn)
		return
	}
	s.crossSeq++
	s.crossOut = append(s.crossOut, crossMsg{dst: dst, at: at, src: s.part, seq: s.crossSeq, fn: fn})
}

// Defer stages fn to run in global (barrier) context, where every
// partition is quiescent and fn may touch any partition's state —
// how a partition-context callback hands control-plane work (catalog
// updates, session verbs) back to the control plane. Staged callbacks
// run at the end of the current window in (partition, staging) order.
// Outside a window fn runs inline, so serial behaviour is unchanged.
func (s *Sim) Defer(fn func()) {
	if s.cluster == nil || !s.cluster.inWindow {
		fn()
		return
	}
	s.deferred = append(s.deferred, fn)
}

// runBefore fires events with timestamp strictly below h, at most n of
// them, and reports how many it fired: fewer than n means none is left
// below h (or the partition was stopped). It does not advance the clock
// to h — the cluster coordinator owns horizon time; the partition clock
// only reflects events it actually fired.
func (s *Sim) runBefore(h Time, n int64) (fired int64) {
	for fired < n && !s.stopped {
		e := s.peek()
		if e == nil || e.at >= h {
			break
		}
		s.Step()
		fired++
	}
	return fired
}

// globalEvent is one barrier-context callback, heap-ordered by
// (time, sequence).
type globalEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func globalLess(a, b globalEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// maxTime is the sentinel "no event" timestamp.
const maxTime = Time(1<<63 - 1)

// Cluster is a partitioned simulation: n Sims synchronised by
// conservative lookahead windows (see the file comment for the model).
// It implements Scheduler, so run loops drive it exactly like a serial
// Sim. A 1-partition cluster delegates everything to its only partition
// and is bit-identical to the serial kernel by construction.
type Cluster struct {
	parts     []*Sim
	lookahead Duration

	now    Time
	gfired int64
	gseq   uint64

	// globals is the barrier-context callback heap (CallAfter and
	// window-deferred work), ordered by (time, sequence).
	globals []globalEvent

	// inWindow is true while partitions execute concurrently. It is
	// written only with all workers quiescent and read by them after
	// the work-channel send, so the channel orders every access.
	inWindow bool

	stopflag atomic.Bool

	shares int // worker shares the partitions are dealt into
	work   []chan Time
	done   chan struct{}
	msgbuf []crossMsg

	// Coordinator-side synchronisation telemetry: windows executed,
	// windows whose horizon was capped by a pending global callback
	// (barrier stalls), and cross-partition messages delivered. All
	// are touched only on the coordinator goroutine.
	windows        int64
	stalls         int64
	crossDelivered int64

	// barrierHook, if set, runs on the coordinator after every window
	// barrier and every global-callback batch, with all partitions
	// quiescent. It is not an event: it cannot perturb the simulation
	// at any partition count. The argument is the latest virtual time
	// whose events have all fired.
	barrierHook func(Time)
}

// NewCluster builds an n-partition cluster with the given lookahead:
// the minimum virtual time between a cross-partition send and its
// earliest possible effect on the destination. Each partition gets its
// own independently seeded RNG stream.
func NewCluster(n int, lookahead Duration) *Cluster {
	if n <= 0 {
		panic("sim: cluster needs at least one partition")
	}
	if n > 1 && lookahead <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	c := &Cluster{lookahead: lookahead, parts: make([]*Sim, n)}
	for i := range c.parts {
		p := New()
		p.cluster = c
		p.part = i
		p.rng = NewRand(0x9e3779b97f4a7c15*uint64(i+1) + 1)
		c.parts[i] = p
	}
	return c
}

// Parts reports the partition count.
func (c *Cluster) Parts() int { return len(c.parts) }

// Part returns partition i's Sim. Data-plane objects owned by a
// partition schedule on this Sim directly.
func (c *Cluster) Part(i int) *Sim { return c.parts[i] }

// Lookahead reports the synchronisation window.
func (c *Cluster) Lookahead() Duration { return c.lookahead }

// SetBarrierHook installs fn to run on the coordinator after every
// window barrier and global-callback batch, with every partition
// quiescent — the natural place to merge partition-sharded telemetry.
// The hook is not an event, so it cannot perturb the simulation; it
// never fires on a 1-partition cluster (which delegates to its only
// partition and has no barriers). Pass nil to remove the hook.
func (c *Cluster) SetBarrierHook(fn func(Time)) { c.barrierHook = fn }

// Windows reports how many lookahead windows have executed.
func (c *Cluster) Windows() int64 { return c.windows }

// BarrierStalls reports how many windows had their horizon capped by
// a pending global callback — control-plane pressure shortening the
// parallel windows.
func (c *Cluster) BarrierStalls() int64 { return c.stalls }

// CrossDelivered reports cross-partition messages delivered at
// barriers.
func (c *Cluster) CrossDelivered() int64 { return c.crossDelivered }

func (c *Cluster) single() bool { return len(c.parts) == 1 }

// Now returns the current virtual time.
func (c *Cluster) Now() Time {
	if c.single() {
		return c.parts[0].now
	}
	return c.now
}

// Pending reports queued events across all partitions plus pending
// global callbacks.
func (c *Cluster) Pending() int {
	n := len(c.globals)
	for _, p := range c.parts {
		n += p.npend
	}
	return n
}

// Fired reports executed events across all partitions plus executed
// global callbacks — the denominator of every events/second scoreboard.
func (c *Cluster) Fired() int64 {
	n := c.gfired
	for _, p := range c.parts {
		n += p.fired
	}
	return n
}

// CallAfter schedules fn d nanoseconds from now in global (barrier)
// context: it runs on the coordinator with every partition quiescent
// and may touch any partition's state. It must not be called from
// partition context (use Defer there); doing so panics.
func (c *Cluster) CallAfter(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if c.inWindow {
		panic("sim: Cluster.CallAfter from partition context; use Sim.Defer")
	}
	if c.single() {
		c.parts[0].After(d, fn)
		return
	}
	c.pushGlobal(c.now+d, fn)
}

// Stop halts Run/RunUntil at the next window barrier. Safe to call from
// any context.
func (c *Cluster) Stop() {
	if c.single() {
		c.parts[0].Stop()
		return
	}
	c.stopflag.Store(true)
}

// RunFor advances the simulation by d nanoseconds of virtual time.
func (c *Cluster) RunFor(d Duration) { c.RunUntil(c.Now() + d) }

// RunUntil fires events with timestamps <= t, then sets every clock
// to t.
func (c *Cluster) RunUntil(t Time) {
	if c.single() {
		c.parts[0].RunUntil(t)
		c.now = c.parts[0].now
		return
	}
	c.stopflag.Store(false)
	c.startWorkers()
	defer c.stopWorkers()
	for !c.stopflag.Load() {
		gmin, emin := c.globalMin(), c.eventMin()
		if min(gmin, emin) > t {
			break
		}
		if gmin <= emin {
			c.runGlobals(gmin)
			continue
		}
		h := emin + c.lookahead
		if gmin < h {
			h = gmin
			c.stalls++
		}
		if t+1 < h {
			h = t + 1
		}
		c.window(h)
	}
	c.advanceAll(t)
}

// Run fires events until no work remains or Stop is called.
func (c *Cluster) Run() {
	if c.single() {
		c.parts[0].Run()
		c.now = c.parts[0].now
		return
	}
	c.stopflag.Store(false)
	c.startWorkers()
	defer c.stopWorkers()
	for !c.stopflag.Load() {
		gmin, emin := c.globalMin(), c.eventMin()
		if gmin == maxTime && emin == maxTime {
			break
		}
		if gmin <= emin {
			c.runGlobals(gmin)
			continue
		}
		h := emin + c.lookahead
		if gmin < h {
			h = gmin
			c.stalls++
		}
		c.window(h)
	}
	// The drain leaves partition clocks ragged (each stopped at its own
	// last event); align them so subsequent scheduling sees one time.
	m := c.now
	for _, p := range c.parts {
		if p.now > m {
			m = p.now
		}
	}
	c.advanceAll(m)
}

// globalMin returns the earliest pending global callback's time.
func (c *Cluster) globalMin() Time {
	if len(c.globals) == 0 {
		return maxTime
	}
	return c.globals[0].at
}

// eventMin returns the earliest pending partition event's time.
func (c *Cluster) eventMin() Time {
	m := maxTime
	for _, p := range c.parts {
		if e := p.peek(); e != nil && e.at < m {
			m = e.at
		}
	}
	return m
}

// advanceAll moves every clock forward to t (never backward). Safe only
// when no partition holds a pending event below t — true at barriers by
// construction.
func (c *Cluster) advanceAll(t Time) {
	for _, p := range c.parts {
		if p.now < t {
			p.now = t
		}
	}
	if c.now < t {
		c.now = t
	}
}

// runGlobals advances every partition to g and executes all global
// callbacks due at (or before) g in (time, sequence) order. Callbacks
// may schedule on any partition and push further globals.
func (c *Cluster) runGlobals(g Time) {
	c.advanceAll(g)
	for len(c.globals) > 0 && c.globals[0].at <= g {
		ev := c.popGlobal()
		ev.fn()
		c.gfired++
	}
	if c.barrierHook != nil {
		c.barrierHook(g)
	}
}

// window executes one lookahead window: every partition fires its
// events strictly below h, then the barrier delivers the staged cross
// messages and deferred callbacks.
//
// The coordinator starts the window itself, share by share, and calls
// in the workers only once the window has proved to hold more than
// handoffGrain events: it then keeps the share it is in and hands the
// later ones that have work to their goroutines. A handoff is two
// cross-thread wake-ups, which cost what a few dozen events cost and,
// on a shared host, whatever the host's scheduler adds; a window of
// eight events (cluster-vod-p2's mean) is cheaper fired where it
// stands. Which goroutine fires a partition's events never shows in
// the simulation, so the results are those of handing off every window.
func (c *Cluster) window(h Time) {
	c.inWindow = true
	for _, p := range c.parts {
		p.stopped = false
	}
	left, sent := handoffGrain, 0
	for i := 0; i < c.shares; i++ {
		if left -= c.runShare(i, h, left); left > 0 {
			continue // share i is done, inside the grain
		}
		for j := i + 1; j < c.shares; j++ {
			if c.shareBusy(j, h) {
				c.work[j] <- h
				sent++
			}
		}
		c.runShare(i, h, math.MaxInt64)
		break
	}
	for ; sent > 0; sent-- {
		<-c.done
	}
	c.inWindow = false
	c.windows++
	c.deliver(h)
	if c.barrierHook != nil {
		c.barrierHook(h - 1)
	}
}

// deliver runs at the barrier: cross messages from all partitions are
// merged in the deterministic order (time, source partition, source
// sequence) and scheduled on their destinations; deferred callbacks
// become global events at h-1 (inside no partition's executed range,
// ahead of any event the next window may fire).
func (c *Cluster) deliver(h Time) {
	msgs := c.msgbuf[:0]
	for _, p := range c.parts {
		msgs = append(msgs, p.crossOut...)
		p.crossOut = p.crossOut[:0]
	}
	sort.Slice(msgs, func(i, j int) bool {
		a, b := &msgs[i], &msgs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for i := range msgs {
		m := &msgs[i]
		if m.at < h {
			panic(fmt.Sprintf(
				"sim: lookahead violation: cross message for partition %d at %v inside window ending %v",
				m.dst.part, m.at, h))
		}
		m.dst.At(m.at, m.fn)
		m.fn = nil // release for GC; msgbuf is recycled
	}
	c.crossDelivered += int64(len(msgs))
	c.msgbuf = msgs[:0]
	for _, p := range c.parts {
		for _, fn := range p.deferred {
			c.pushGlobal(h-1, fn)
		}
		clear(p.deferred)
		p.deferred = p.deferred[:0]
	}
}

// workerCount is how many shares the partitions are dealt into, the
// coordinator's included: min(partitions, max(2, GOMAXPROCS)). Every
// spare core gets work, and even a 1-core box runs two goroutines so
// the race detector exercises the real concurrent paths.
func (c *Cluster) workerCount() int {
	w := len(c.parts)
	if m := max(2, runtime.GOMAXPROCS(0)); w > m {
		w = m
	}
	return w
}

// startWorkers spawns the window workers for one run. Share i is
// partitions i, i+W, i+2W, ... — a static assignment, and a partition's
// events fire in the same order on whichever goroutine runs its share,
// so results are independent of the worker count. Share 0 has no
// goroutine: window only ever hands off shares after the one the
// coordinator is in.
func (c *Cluster) startWorkers() {
	c.shares = c.workerCount()
	c.work = make([]chan Time, c.shares)
	c.done = make(chan struct{}, c.shares)
	for i := 1; i < c.shares; i++ {
		ch := make(chan Time)
		c.work[i] = ch
		go func(idx int, ch chan Time) {
			for h := range ch {
				c.runShare(idx, h, math.MaxInt64)
				c.done <- struct{}{}
			}
		}(i, ch)
	}
}

// runShare fires share idx's events below h, at most n of them, and
// reports how many it fired.
func (c *Cluster) runShare(idx int, h Time, n int64) (fired int64) {
	for pi := idx; pi < len(c.parts) && fired < n; pi += c.shares {
		fired += c.parts[pi].runBefore(h, n-fired)
	}
	return fired
}

// shareBusy reports whether share idx holds an event below h.
func (c *Cluster) shareBusy(idx int, h Time) bool {
	for pi := idx; pi < len(c.parts); pi += c.shares {
		if e := c.parts[pi].peek(); e != nil && e.at < h {
			return true
		}
	}
	return false
}

// stopWorkers joins the window workers at the end of a run.
func (c *Cluster) stopWorkers() {
	for _, ch := range c.work[1:] {
		close(ch)
	}
	c.work = nil
}

func (c *Cluster) pushGlobal(at Time, fn func()) {
	c.gseq++
	c.globals = append(c.globals, globalEvent{at: at, seq: c.gseq, fn: fn})
	i := len(c.globals) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !globalLess(c.globals[i], c.globals[p]) {
			break
		}
		c.globals[i], c.globals[p] = c.globals[p], c.globals[i]
		i = p
	}
}

func (c *Cluster) popGlobal() globalEvent {
	top := c.globals[0]
	n := len(c.globals) - 1
	c.globals[0] = c.globals[n]
	c.globals[n] = globalEvent{}
	c.globals = c.globals[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if l+1 < n && globalLess(c.globals[l+1], c.globals[l]) {
			m = l + 1
		}
		if !globalLess(c.globals[m], c.globals[i]) {
			break
		}
		c.globals[i], c.globals[m] = c.globals[m], c.globals[i]
		i = m
	}
	return top
}
