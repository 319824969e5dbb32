package sim

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// chainWorkload schedules an identical event chain on a Sim: n events,
// each advancing by a fixed stride, every 5th also posting a second
// event one stride out. It exercises At/After/Post exactly the same way
// regardless of which kernel runs it.
func chainWorkload(s *Sim, n int, log *[]Time) {
	var step func(i int)
	step = func(i int) {
		*log = append(*log, s.Now())
		if i >= n {
			return
		}
		if i%5 == 0 {
			s.Post(s.Now()+7, func() { *log = append(*log, s.Now()) })
		}
		s.After(13, func() { step(i + 1) })
	}
	s.After(1, func() { step(0) })
}

// TestClusterSinglePartitionMatchesSerial: a 1-partition cluster must
// reproduce the serial kernel bit for bit — same fire times in the same
// order, same clock, same event count.
func TestClusterSinglePartitionMatchesSerial(t *testing.T) {
	var serialLog, cluLog []Time

	s := New()
	chainWorkload(s, 500, &serialLog)
	s.RunUntil(4000)

	c := NewCluster(1, 50)
	chainWorkload(c.Part(0), 500, &cluLog)
	c.RunUntil(4000)

	if !reflect.DeepEqual(serialLog, cluLog) {
		t.Fatalf("fire logs differ: serial %d entries, cluster %d", len(serialLog), len(cluLog))
	}
	if s.Now() != c.Now() {
		t.Fatalf("clocks differ: serial %v cluster %v", s.Now(), c.Now())
	}
	if s.Fired() != c.Fired() {
		t.Fatalf("fired counts differ: serial %d cluster %d", s.Fired(), c.Fired())
	}
}

// runOrderingWorkload drives a 4-partition cluster where every
// partition's chain periodically crosses to its neighbour at now +
// lookahead + jitter, and every execution is logged on the partition it
// ran on. It returns the per-partition logs and the count of cross
// messages that executed at the wrong destination time.
func runOrderingWorkload(t *testing.T) ([4][]Time, int64) {
	t.Helper()
	const parts = 4
	const lookahead = Duration(1000)
	c := NewCluster(parts, lookahead)
	var logs [4][]Time
	var wrongTime atomic.Int64

	for p := 0; p < parts; p++ {
		s := c.Part(p)
		dst := c.Part((p + 1) % parts)
		var step func(i int)
		step = func(i int) {
			logs[s.Partition()] = append(logs[s.Partition()], s.Now())
			if i >= 300 {
				return
			}
			if i%4 == 0 {
				at := s.Now() + lookahead + Duration(s.Rand().Intn(50))
				s.Cross(dst, at, func() {
					if dst.Now() != at {
						wrongTime.Add(1)
					}
					logs[dst.Partition()] = append(logs[dst.Partition()], dst.Now())
				})
			}
			s.After(1+Duration(s.Rand().Intn(40)), func() { step(i + 1) })
		}
		s.After(Duration(p+1), func() { step(0) })
	}
	c.RunUntil(100_000)
	return logs, wrongTime.Load()
}

// TestClusterOrderingProperty: within a partition, execution times are
// nondecreasing (strict (time, seq) order), and a cross-partition
// message never executes before — or at any time other than — its
// timestamp. Two identical runs must also produce identical logs: the
// engine is deterministic regardless of worker scheduling.
func TestClusterOrderingProperty(t *testing.T) {
	logs, wrong := runOrderingWorkload(t)
	if wrong != 0 {
		t.Fatalf("%d cross messages executed at the wrong destination time", wrong)
	}
	total := 0
	for p, log := range logs {
		total += len(log)
		for i := 1; i < len(log); i++ {
			if log[i] < log[i-1] {
				t.Fatalf("partition %d executed out of order: %v after %v (index %d)",
					p, log[i], log[i-1], i)
			}
		}
	}
	if total < 4*300 {
		t.Fatalf("only %d events logged — workload did not run", total)
	}

	again, _ := runOrderingWorkload(t)
	if !reflect.DeepEqual(logs, again) {
		t.Fatal("two identical runs produced different execution orders")
	}
}

// TestClusterLookaheadViolationPanics: a cross message stamped inside
// the current window is a broken-model bug the barrier must catch, not
// silently reorder.
func TestClusterLookaheadViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	c := NewCluster(2, 1000)
	src, dst := c.Part(0), c.Part(1)
	src.At(100, func() {
		src.Cross(dst, src.Now()+10, func() {}) // 10 << lookahead 1000
	})
	c.RunUntil(5000)
}

// TestClusterDeferRunsAtBarrier: work handed to Defer from partition
// context runs in global context, where touching any partition is
// legal — including scheduling directly on a foreign partition with no
// lookahead margin.
func TestClusterDeferRunsAtBarrier(t *testing.T) {
	c := NewCluster(2, 1000)
	src, dst := c.Part(0), c.Part(1)
	var deferRan, crossRan bool
	src.At(100, func() {
		src.Defer(func() {
			deferRan = true
			dst.At(dst.Now()+1, func() { crossRan = true })
		})
	})
	c.RunUntil(5000)
	if !deferRan {
		t.Fatal("deferred callback never ran")
	}
	if !crossRan {
		t.Fatal("barrier-scheduled foreign-partition event never ran")
	}
}

// TestClusterGlobalCallAfter: CallAfter callbacks interleave with
// partition windows at the right virtual times and may schedule more
// global work.
func TestClusterGlobalCallAfter(t *testing.T) {
	c := NewCluster(2, 100)
	var at []Time
	c.Part(0).At(50, func() {})
	c.Part(1).At(250, func() {})
	c.CallAfter(200, func() {
		at = append(at, c.Now())
		c.CallAfter(300, func() { at = append(at, c.Now()) })
	})
	c.RunUntil(1000)
	want := []Time{200, 500}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("global callbacks ran at %v, want %v", at, want)
	}
	if c.Now() != 1000 {
		t.Fatalf("clock = %v, want 1000", c.Now())
	}
}

// goid reads the running goroutine's id off its stack header.
func goid() string {
	b := make([]byte, 64)
	return strings.Fields(string(b[:runtime.Stack(b, false)]))[1]
}

// TestWindowHandoffGrain: the coordinator fires a window's first
// handoffGrain events itself and calls in a worker only for a share it
// has not reached by then, and every event fires exactly once either
// way. (Under -race the grain is zero: the second share always runs on
// a worker.)
func TestWindowHandoffGrain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events [2]int // per partition, all inside the first window
		shared bool   // partition 1 runs on a worker
	}{
		{"small", [2]int{3, 3}, handoffGrain < 3},
		{"large", [2]int{200, 200}, true},
		{"large-last", [2]int{3, 200}, handoffGrain < 3}, // nothing left to hand off
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(2, 1000)
			var ran [2]map[string]int
			for p := range ran {
				ids := map[string]int{}
				ran[p] = ids
				for i := 0; i < tc.events[p]; i++ {
					c.Part(p).At(Time(10+i), func() { ids[goid()]++ })
				}
			}
			me := goid()
			c.RunUntil(5000)
			if c.Windows() != 1 {
				t.Fatalf("%d windows, want 1", c.Windows())
			}
			if n := ran[0][me]; n != tc.events[0] || len(ran[0]) != 1 {
				t.Fatalf("partition 0 fired %v, want %d on the coordinator %s", ran[0], tc.events[0], me)
			}
			if n := ran[1][me]; tc.shared && (n != 0 || len(ran[1]) != 1) || !tc.shared && n != tc.events[1] {
				t.Fatalf("partition 1 fired %v (coordinator is %s), shared = %v", ran[1], me, tc.shared)
			}
			if c.Fired() != int64(tc.events[0]+tc.events[1]) {
				t.Fatalf("fired %d events, want %d", c.Fired(), tc.events[0]+tc.events[1])
			}
		})
	}
}

// TestPartitionStopEndsItsWindow: Sim.Stop from partition context ends
// that partition's share of the window it is called in, whether the
// coordinator or a worker is running it, and no later call in the same
// window resumes it.
func TestPartitionStopEndsItsWindow(t *testing.T) {
	c := NewCluster(2, 1000)
	var fired [2]int
	for p := range fired {
		s := c.Part(p)
		for i := 0; i < 200; i++ {
			s.At(Time(10+i), func() {
				if fired[p]++; fired[p] == 5 {
					s.Stop()
				}
			})
		}
	}
	c.startWorkers()
	defer c.stopWorkers()
	c.window(1000)
	if fired != [2]int{5, 5} {
		t.Fatalf("fired %v events in the stopped window, want 5 and 5", fired)
	}
}
