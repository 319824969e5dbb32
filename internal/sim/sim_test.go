package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("final clock %v, want 30", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at Time = -1
	s.After(100, func() { at = s.Now() })
	s.Run()
	if at != 100 {
		t.Fatalf("fired at %v, want 100", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.At(10, func() {
		times = append(times, s.Now())
		s.After(5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	s := New()
	var order []int
	e1 := s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(30, func() { order = append(order, 3) })
	s.Cancel(e1)
	s.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("order = %v, want [2 3]", order)
	}
}

func TestRunUntilAdvancesClockNoFurther(t *testing.T) {
	s := New()
	var fired []Time
	s.At(10, func() { fired = append(fired, s.Now()) })
	s.At(100, func() { fired = append(fired, s.Now()) })
	s.RunUntil(50)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
	s.Run()
	if len(fired) != 2 || fired[1] != 100 {
		t.Fatalf("fired = %v, want [10 100]", fired)
	}
}

func TestRunForIsRelative(t *testing.T) {
	s := New()
	s.RunFor(25)
	s.RunFor(25)
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if s.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", s.Pending())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestTickerFiresPeriodically(t *testing.T) {
	s := New()
	var times []Time
	tk := s.Tick(10, 5, func() {
		times = append(times, s.Now())
		if len(times) == 4 {
			s.Stop()
		}
	})
	s.Run()
	tk.Stop()
	want := []Time{10, 15, 20, 25}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = s.Tick(0, 10, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var seen []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			s.At(d, func() { seen = append(seen, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of range", v)
		}
		if v := r.ExpFloat64(); v < 0 {
			t.Fatalf("ExpFloat64() = %v negative", v)
		}
	}
}

func TestRandMoments(t *testing.T) {
	r := NewRand(7)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
	sum = 0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean = sum / float64(n)
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("exponential mean = %v, want ~1.0", mean)
	}
}

func TestPerm(t *testing.T) {
	r := NewRand(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation")
		}
		seen[v] = true
	}
}
