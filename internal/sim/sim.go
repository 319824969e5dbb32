// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every timing-sensitive subsystem in this repository (ATM links and
// switches, devices, the Nemesis scheduler, disks) runs on this kernel
// rather than on wall-clock time: the paper's guarantees are about
// microsecond-level behaviour that a garbage-collected runtime cannot
// honour directly, so virtual time is the substitution that preserves the
// shape of every result while making runs exactly reproducible.
//
// Events fire in the strict total order (time, sequence): events
// scheduled for the same instant fire in scheduling order (FIFO), which
// keeps runs deterministic.
//
// A Sim is the whole simulation and runs on its caller's goroutine:
// every model object is owned by that one goroutine, so nothing here
// (or in the packages scheduling on it) locks. See ARCHITECTURE.md
// ("Concurrency model").
//
// The event queue is built for the cell-rate workloads the fabric
// generates (hundreds of thousands of events per simulated second):
//
//   - a cached next-event slot, so the common schedule-one/fire-one chain
//     never touches a queue structure at all;
//   - a same-time FIFO lane for events scheduled at the current instant;
//   - two calendar wheels of fixed-width buckets with O(1) insert and
//     near-O(1) extract: the near wheel (8.192µs buckets, ~8.4ms) for
//     the dense cell and frame-hop traffic, the far wheel (8.389ms
//     buckets, ~8.6s) for frame timers and CM rounds. An event is filed
//     in one level and never cascades; each wheel drains its own
//     current bucket in sorted order;
//   - a binary heap for events beyond the far horizon (long session
//     timeouts);
//   - a refill that takes the minimum of the four fronts (lane, near,
//     far, heap), so ordering is exact;
//   - arena-backed event allocation with a free list that recycles every
//     fired event, so steady-state runs allocate nothing per event (see
//     the Event doc for the handle-lifetime contract this relies on).
//
// Firing order is the strict total order (time, sequence) — identical to
// the single binary heap this replaces.
package sim

import "fmt"

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Convenient units, mirroring time.Duration but in virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Wheel geometry. Both levels have nBuckets buckets. A near bucket is
// 8.192µs wide — about two cell times on a 100 Mb/s link, so dense cell
// traffic lands a couple of events per bucket — and the near wheel
// covers ~8.4ms (a few thousand queued cells per link). A far bucket is
// one near horizon wide, so the far wheel covers ~8.6s: every frame
// period, CM round and stream timer. An event is filed once, in the
// finer level whose window holds it, and never migrates; only events
// beyond the far horizon (long session timeouts) wait in the heap.
const (
	nearShift   = 13
	farShift    = nearShift + 10 // log2(nBuckets): a far bucket spans the near wheel
	nBuckets    = 1024
	bucketMask  = nBuckets - 1
	bitmapWords = nBuckets / 64
)

// Event container tags. Non-negative slots are wheel buckets: the near
// wheel's are [0, nBuckets), the far wheel's [nBuckets, 2*nBuckets).
const (
	slotNone int32 = -1 // not queued (fired, cancelled, or fresh)
	slotNext int32 = -2 // the cached minimum
	slotFIFO int32 = -3 // same-time lane
	slotHeap int32 = -4 // beyond-horizon heap
)

// Event is a scheduled callback. It is returned by the scheduling methods
// so callers can cancel it before it fires.
//
// A handle is valid until its event fires or is cancelled, after which
// the event is recycled. A retained handle MUST therefore be cleared at
// the moment it dies: from within the callback itself when it fires
// (set the field nil as the callback's first action — see
// nemesis.grantDone for the pattern), and immediately after a Cancel.
// A dead handle must never be cancelled again. Code that
// does not retain handles is unaffected.
type Event struct {
	at   Time
	seq  uint64
	fn   func()
	slot int32 // container tag; bucket index when >= 0
	idx  int32 // position within the container
}

// Time reports when the event will fire.
func (e *Event) Time() Time { return e.at }

// Scheduled reports whether the event is still queued.
func (e *Event) Scheduled() bool { return e.slot != slotNone }

func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now     Time
	seq     uint64
	npend   int
	fired   int64
	stopped bool

	// next caches the global minimum event, when non-nil.
	next *Event

	// nowq is the same-time FIFO lane: events scheduled for the current
	// instant while it is being processed. Entries may be nilled by
	// Cancel.
	nowq    []*Event
	nowHead int

	// The two wheel levels, and the heap for events beyond the far
	// horizon, ordered by (time, seq).
	near, far wheel
	heap      []*Event

	// Event allocation: every fired or cancelled event is recycled
	// through the free list (see the Event doc for the handle-lifetime
	// contract); the bump-pointer arena only feeds growth when the free
	// list is empty.
	arena  []Event
	arenaN int
	free   []*Event
}

// New returns a simulator with the clock at zero and an empty event queue.
func New() *Sim {
	s := &Sim{}
	s.near.shift = nearShift
	s.far.shift, s.far.tag = farShift, nBuckets
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return s.npend }

// Fired reports the total number of events executed so far — the
// denominator of every events/second scoreboard.
func (s *Sim) Fired() int64 { return s.fired }

func (s *Sim) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	if s.arenaN == len(s.arena) {
		s.arena = make([]Event, 256)
		s.arenaN = 0
	}
	e := &s.arena[s.arenaN]
	s.arenaN++
	return e
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a logic error in a discrete-event model.
func (s *Sim) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	e := s.alloc()
	s.seq++
	e.at, e.seq, e.fn = t, s.seq, fn
	s.push(e)
	return e
}

// After schedules fn to run d nanoseconds from now.
func (s *Sim) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Post schedules fn at absolute time t with no handle — the
// fire-and-forget lane the fabric's per-cell events use. It is At with
// the handle discarded, which documents at the call site that the event
// is never cancelled.
func (s *Sim) Post(t Time, fn func()) {
	s.At(t, fn)
}

// push enqueues a freshly stamped event, maintaining the invariant that
// s.next, when non-nil, is the minimum of all queued events.
func (s *Sim) push(e *Event) {
	s.npend++
	if s.next == nil && s.npend == 1 {
		e.slot = slotNext
		s.next = e
		return
	}
	s.pushSlow(e)
}

// pushSlow is push for a non-empty queue; npend is already incremented.
func (s *Sim) pushSlow(e *Event) {
	if s.next == nil {
		s.insert(e)
		return
	}
	// Strict less: an equal timestamp means a later sequence number, so
	// the cached minimum keeps priority.
	if e.at < s.next.at {
		old := s.next
		e.slot = slotNext
		s.next = e
		s.insert(old)
		return
	}
	s.insert(e)
}

// insert places an event (known not to displace the cached minimum) into
// the same-time lane, a wheel, or the heap.
func (s *Sim) insert(e *Event) {
	if e.at == s.now {
		e.slot = slotFIFO
		e.idx = int32(len(s.nowq))
		s.nowq = append(s.nowq, e)
		return
	}
	if bn := int64(e.at) >> nearShift; bn-int64(s.now)>>nearShift < nBuckets {
		s.near.insert(e, bn)
		return
	}
	if bn := int64(e.at) >> farShift; bn-int64(s.now)>>farShift < nBuckets {
		s.far.insert(e, bn)
		return
	}
	e.slot = slotHeap
	e.idx = int32(len(s.heap))
	s.heap = append(s.heap, e)
	s.heapUp(int(e.idx))
}

// refill selects the global minimum from the same-time lane, the two
// wheels and the heap, extracts it, and caches it in s.next.
func (s *Sim) refill() {
	var best *Event
	src := 0 // 1 = nowq, 2 = near, 3 = far, 4 = heap
	for s.nowHead < len(s.nowq) && s.nowq[s.nowHead] == nil {
		s.nowHead++
	}
	if s.nowHead == len(s.nowq) && len(s.nowq) > 0 {
		s.nowq = s.nowq[:0]
		s.nowHead = 0
	}
	if s.nowHead < len(s.nowq) {
		best = s.nowq[s.nowHead]
		src = 1
	}
	if w := s.near.front(s.now); w != nil && (best == nil || less(w, best)) {
		best = w
		src = 2
	}
	if w := s.far.front(s.now); w != nil && (best == nil || less(w, best)) {
		best = w
		src = 3
	}
	if len(s.heap) > 0 && (best == nil || less(s.heap[0], best)) {
		best = s.heap[0]
		src = 4
	}
	if best == nil {
		return
	}
	switch src {
	case 1:
		s.nowq[s.nowHead] = nil
		s.nowHead++
	case 2:
		s.near.extract()
	case 3:
		s.far.extract()
	case 4:
		s.heapRemove(0)
	}
	best.slot = slotNext
	s.next = best
}

// peek returns the next event to fire without removing it, or nil.
func (s *Sim) peek() *Event {
	if s.next == nil && s.npend > 0 {
		s.refill()
	}
	return s.next
}

// remove detaches a queued event from whichever container holds it.
func (s *Sim) remove(e *Event) {
	switch {
	case e.slot == slotNext:
		s.next = nil
	case e.slot == slotFIFO:
		s.nowq[e.idx] = nil
	case e.slot == slotHeap:
		s.heapRemove(int(e.idx))
	case e.slot >= nBuckets:
		s.far.remove(e)
	case e.slot >= 0:
		s.near.remove(e)
	}
	e.slot = slotNone
	s.npend--
}

// Cancel removes a pending event and reports true; the handle is then
// invalid (cancelled events are recycled like fired ones). Cancelling a
// nil, fired or already-cancelled handle is a no-op reporting false.
func (s *Sim) Cancel(e *Event) bool {
	if e == nil || e.slot == slotNone {
		return false
	}
	s.remove(e)
	e.fn = nil
	s.free = append(s.free, e)
	return true
}

// Heap operations: a binary min-heap ordered by (time, seq) with index
// maintenance for O(log n) removal.

func (s *Sim) heapUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = int32(i)
		i = p
	}
	h[i] = e
	e.idx = int32(i)
}

func (s *Sim) heapDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], e) {
			break
		}
		h[i] = h[c]
		h[i].idx = int32(i)
		i = c
	}
	h[i] = e
	e.idx = int32(i)
}

func (s *Sim) heapRemove(i int) {
	h := s.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.heap = h[:n]
	if i == n {
		return
	}
	h[i] = last
	last.idx = int32(i)
	s.heapDown(i)
	s.heapUp(i)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (s *Sim) Step() bool {
	e := s.next
	if e == nil {
		if s.npend == 0 {
			return false
		}
		s.refill()
		e = s.next
		if e == nil {
			return false
		}
	}
	s.next = nil
	s.npend--
	e.slot = slotNone
	s.now = e.at
	fn := e.fn
	fn()
	s.fired++
	e.fn = nil
	s.free = append(s.free, e)
	return true
}

// Run fires events until the queue is empty or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
func (s *Sim) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped {
		e := s.peek()
		if e == nil || e.at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor advances the simulation by d nanoseconds of virtual time.
func (s *Sim) RunFor(d Duration) { s.RunUntil(s.now + d) }

// Stop halts Run/RunUntil after the currently firing event returns.
func (s *Sim) Stop() { s.stopped = true }

// Ticker fires fn every interval, starting at start, until cancelled.
type Ticker struct {
	sim      *Sim
	interval Duration
	fn       func()
	ev       *Event
	stopped  bool
}

// Tick schedules fn to run every interval, first at start.
func (s *Sim) Tick(start Time, interval Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: non-positive tick interval")
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	t.ev = s.At(start, t.fire)
	return t
}

func (t *Ticker) fire() {
	t.ev = nil // the firing event will be recycled; drop the handle first
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.ev = t.sim.After(t.interval, t.fire)
	}
}

// Stop cancels the ticker; the callback will not fire again.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.ev != nil {
		t.sim.Cancel(t.ev)
		t.ev = nil
	}
}
