package sim

import "testing"

// retained is the backing-array capacity the wheel holds: its buckets'
// and its spare list's.
func (w *wheel) retained() int {
	n := 0
	for _, b := range w.buckets {
		if b != nil {
			n += cap(b.ev)
		}
	}
	for _, b := range w.spare {
		n += cap(b.ev)
	}
	return n
}

// TestFarWheelTimersAllocateNothing pins the far tier's cost at
// cluster-vod's scale: 25 000 timers re-arming every 125 ms (8 Hz
// frame ticks) for 20 simulated seconds. After a warm-up the re-arms
// allocate nothing, and the two wheels retain bucket arrays for at most
// twice the pending events — drained buckets recycle their arrays
// instead of each of the 1024 far buckets keeping one.
func TestFarWheelTimersAllocateNothing(t *testing.T) {
	const (
		timers = 25_000
		period = 125 * Millisecond
	)
	s := New()
	fires := make([]func(), timers)
	for i := range fires {
		fires[i] = func() { s.After(period, fires[i]) }
		s.At(Time(i)*period/timers, fires[i])
	}
	peak := s.Pending()
	s.RunFor(Second)
	if n := testing.AllocsPerRun(18, func() {
		s.RunFor(Second)
		peak = max(peak, s.Pending())
	}); n != 0 {
		t.Fatalf("%v allocations per simulated second of re-arms, want 0", n)
	}
	if s.Now() != 20*Second || s.Fired() < 20*8*timers {
		t.Fatalf("at %v after %d events, want 20s and at least %d", s.Now(), s.Fired(), 20*8*timers)
	}
	if s.heap != nil {
		t.Fatalf("%d events reached the beyond-horizon heap", len(s.heap))
	}
	if got := s.near.retained() + s.far.retained(); got > 2*peak {
		t.Fatalf("wheels retain %d bucket slots for a peak of %d pending events, want at most %d", got, peak, 2*peak)
	}
}
