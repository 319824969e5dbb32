package sim

import (
	"cmp"
	"slices"
	"sort"
	"testing"
)

// TestQueueOrderAgainstReference drives the queue with a mixed workload
// — near-future cell-spaced events, far-wheel frame timers, events at
// both wheels' horizon edges and beyond the far one, same-instant posts
// and cancels — and checks the firing order against a sorted reference.
// This is the determinism contract the old binary heap provided: strict
// (time, seq) order.
func TestQueueOrderAgainstReference(t *testing.T) {
	s := New()
	r := NewRand(42)

	type ref struct {
		at Time
		id int
	}
	var want []ref
	var got []ref
	id := 0

	schedule := func(d Duration) {
		n := id
		id++
		at := s.Now() + d
		want = append(want, ref{at, n})
		s.At(at, func() {
			got = append(got, ref{s.Now(), n})
			// From inside callbacks, add same-instant and short-delay
			// work to stress the FIFO lane and current-bucket inserts.
			if n%37 == 0 {
				m := id
				id++
				want = append(want, ref{s.Now(), m})
				s.At(s.Now(), func() { got = append(got, ref{s.Now(), m}) })
			}
		})
	}

	var cancellable []*Event
	for i := 0; i < 7000; i++ {
		switch i % 7 {
		case 0:
			schedule(r.Duration(10 * Microsecond)) // near: same/adjacent buckets
		case 1:
			schedule(4240 * Nanosecond) // cell-spaced
		case 2:
			schedule(r.Duration(40 * Millisecond)) // far wheel
		case 3:
			schedule(r.Duration(nBuckets << nearShift)) // near horizon edge
		case 4:
			// A cancelled event must never fire.
			e := s.At(s.Now()+r.Duration(20*Millisecond), func() {
				t.Error("cancelled event fired")
			})
			cancellable = append(cancellable, e)
		case 5:
			schedule(nBuckets<<farShift - 4096 + r.Duration(8192)) // far horizon edge
		case 6:
			schedule(nBuckets<<farShift + r.Duration(30*Second)) // beyond: the heap
		}
	}
	for _, e := range cancellable {
		if !s.Cancel(e) {
			t.Fatal("Cancel returned false for a pending event")
		}
	}

	s.Run()

	// The reference order: by (time, scheduling order). Scheduling order
	// equals id order here because every want entry was appended at
	// schedule time.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: fired %+v, want %+v", i, got[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after drain", s.Pending())
	}
}

// TestWheelCursorVirginAlias: on a freshly created simulator the drain
// cursor must not alias the last wheel bucket — an event scheduled in
// absolute bucket nBuckets-1 (here ~8.385ms) must not fire before
// earlier wheel events.
func TestWheelCursorVirginAlias(t *testing.T) {
	s := New()
	var order []Time
	rec := func() { order = append(order, s.Now()) }
	s.At(Time((nBuckets-1)<<nearShift)+100, rec) // last bucket of the window
	s.At(1000, rec)
	s.At(3<<nearShift, rec)
	s.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events fired out of order: %v", order)
		}
	}
	if len(order) != 3 {
		t.Fatalf("fired %d events, want 3", len(order))
	}
}

// TestWheelCursorResyncAfterIdle: when the wheel idles past its horizon
// (only far-heap timers pending) the cursor must resynchronise to the
// clock's absolute bucket, so a callback inserting into the bucket
// being drained keeps sorted order.
func TestWheelCursorResyncAfterIdle(t *testing.T) {
	s := New()
	var order []Time
	rec := func() { order = append(order, s.Now()) }
	s.At(100, rec) // prime the cursor near zero
	s.At(29300*Microsecond, func() {
		order = append(order, s.Now())
		// Two events in one wheel bucket plus an earlier event that
		// occupies the cached-min slot, so the bucket pair is sorted
		// and partially drained before the insert below...
		a := s.Now() + 5*Microsecond
		s.At(a, func() {
			order = append(order, s.Now())
			// ...a mid-drain insert into the bucket being drained,
			// landing between the two sorted entries.
			s.At(s.Now()+500*Nanosecond, rec)
		})
		s.At(a+Microsecond, rec)
		s.At(s.Now()+Microsecond, rec)
	})
	s.Run()
	if len(order) != 6 {
		t.Fatalf("fired %d events, want 6", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("virtual clock ran backward: %v", order)
		}
	}
}

// TestCancelCurrentBucketKeepsOrder cancels an event in the middle of
// the sorted drain bucket while it is being drained.
func TestCancelCurrentBucketKeepsOrder(t *testing.T) {
	s := New()
	var order []int
	var doomed *Event
	s.At(10, func() {
		order = append(order, 0)
		s.Cancel(doomed)
	})
	s.At(20, func() { order = append(order, 1) })
	doomed = s.At(30, func() { t.Error("cancelled event fired") })
	s.At(40, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

// FuzzQueueOrder decodes a byte string into queue operations — schedule
// at a same-instant, near, near-edge, far, far-edge or beyond-horizon
// delay; cancel the k-th pending event; start a periodic event that
// re-arms from inside its own callback — and checks that the events fire
// in (time, seq) order. One operation runs at the start and one from
// inside every callback, so the clock advances between them and every
// container is inserted into mid-drain.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 9, 6, 0, 2, 200, 3, 7, 4, 255, 5, 1, 7, 3, 6, 1})
	f.Add([]byte{7, 0, 7, 1, 7, 2, 7, 3, 7, 4, 7, 5, 6, 2, 6, 0})
	r := NewRand(7)
	seed := make([]byte, 512)
	for i := range seed {
		seed[i] = byte(r.Intn(256))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		checkQueueOrder(t, ops)
	})
}

// delayClass maps a fuzz operation's class and parameter byte to a delay.
func delayClass(class, p byte) Duration {
	j := Duration(p)
	switch class {
	case 0:
		return 0
	case 1:
		return 1 + j*37 // near: within a few buckets
	case 2:
		return nBuckets<<nearShift - 128 + j // straddles the near horizon
	case 3:
		return nBuckets<<nearShift + j*33*Millisecond // far wheel
	case 4:
		return nBuckets<<farShift - 128 + j // straddles the far horizon
	default:
		return nBuckets<<farShift + j*Second // beyond: the heap
	}
}

func checkQueueOrder(t *testing.T, ops []byte) {
	s := New()
	type ref struct {
		at Time
		id int
	}
	var want, got []ref
	cancelled := map[int]bool{}
	var live []int             // ids of pending events, in scheduling order
	handle := map[int]*Event{} // pending id -> handle
	pos, nextID := 0, 0

	var step func()
	var schedule func(d, period Duration, rearms int)
	schedule = func(d, period Duration, rearms int) {
		id := nextID
		nextID++
		at := s.Now() + d
		want = append(want, ref{at, id})
		live = append(live, id)
		handle[id] = s.At(at, func() {
			got = append(got, ref{s.Now(), id})
			delete(handle, id)
			live = slices.DeleteFunc(live, func(x int) bool { return x == id })
			if rearms > 0 {
				schedule(period, period, rearms-1)
			}
			step()
		})
	}
	step = func() {
		if pos+1 >= len(ops) {
			pos = len(ops)
			return
		}
		op, p := ops[pos], ops[pos+1]
		pos += 2
		switch class := op % 8; class {
		case 6:
			if len(live) == 0 {
				return
			}
			id := live[int(p)%len(live)]
			if !s.Cancel(handle[id]) {
				t.Fatalf("Cancel of pending event %d returned false", id)
			}
			delete(handle, id)
			live = slices.DeleteFunc(live, func(x int) bool { return x == id })
			cancelled[id] = true
		case 7:
			period := delayClass(p%6, p/6)
			schedule(period, period, int(op>>3)%4+1)
		default:
			schedule(delayClass(class, p), 0, 0)
		}
	}

	for pos < len(ops) {
		step()
		s.Run()
	}
	want = slices.DeleteFunc(want, func(r ref) bool { return cancelled[r.id] })
	slices.SortFunc(want, func(a, b ref) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: fired %+v, want %+v", i, got[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after drain", s.Pending())
	}
}
