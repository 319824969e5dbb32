package sim

import (
	"sort"
	"testing"
)

// TestQueueOrderAgainstReference drives the calendar-wheel queue with a
// mixed workload — near-future cell-spaced events, far-future frame
// timers, same-instant posts and cancels — and checks the
// firing order against a sorted reference. This is the determinism
// contract the old binary heap provided: strict (time, seq) order.
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
	for i := 0; i < 5000; i++ {
		switch i % 5 {
		case 0:
			schedule(r.Duration(10 * Microsecond)) // near: same/adjacent buckets
		case 1:
			schedule(4240 * Nanosecond) // cell-spaced
		case 2:
			schedule(r.Duration(40 * Millisecond)) // far heap
		case 3:
			schedule(r.Duration(nBuckets << bucketShift)) // wheel horizon edge
		case 4:
			// A cancelled event must never fire.
			e := s.At(s.Now()+r.Duration(20*Millisecond), func() {
				t.Error("cancelled event fired")
			})
			cancellable = append(cancellable, e)
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
	s.At(Time((nBuckets-1)<<bucketShift)+100, rec) // last bucket of the window
	s.At(1000, rec)
	s.At(3<<bucketShift, rec)
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
