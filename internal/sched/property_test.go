package sched_test

import (
	"testing"
	"testing/quick"

	"repro/internal/nemesis"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// Property (paper §3.3, the EDF-over-shares contract): a domain with guarantee {s, p} receives at
// least its slice in every window while it has work, for any feasible
// random set of contracts, with hogs competing.
func TestGuaranteePropertyRandomContracts(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		s := sim.New()
		edf := sched.NewEDFShares()
		k := nemesis.NewKernel(s, nemesis.Config{SingleAddressSpace: true}, edf)

		// Build 2-5 contracts with total utilisation <= 80%.
		n := 2 + rng.Intn(4)
		type contract struct {
			dom   *nemesis.Domain
			slice sim.Duration
		}
		var contracts []contract
		utilLeft := 0.80
		for i := 0; i < n; i++ {
			maxU := utilLeft / float64(n-i) * 1.5
			if maxU > utilLeft {
				maxU = utilLeft
			}
			u := (0.02 + rng.Float64()*maxU) // at least 2%
			if u > utilLeft {
				u = utilLeft
			}
			utilLeft -= u
			period := sim.Duration(5+rng.Intn(95)) * sim.Millisecond
			slice := sim.Duration(float64(period) * u)
			if slice < 10*sim.Microsecond {
				slice = 10 * sim.Microsecond
			}
			dom := k.Spawn("g", nemesis.SchedParams{Slice: slice, Period: period},
				func(c *nemesis.Ctx) { sched.RunHog(c, 100*sim.Microsecond, 0) })
			contracts = append(contracts, contract{dom: dom, slice: slice})
			_ = period
		}
		for i := 0; i < 2; i++ {
			k.Spawn("hog", nemesis.SchedParams{BestEffort: true},
				func(c *nemesis.Ctx) { sched.RunHog(c, sim.Millisecond, 0) })
		}
		const horizon = 500 * sim.Millisecond
		s.RunUntil(horizon)
		k.Shutdown()

		for _, c := range contracts {
			period := c.dom.Params.Period
			fullWindows := int64(horizon / period)
			// Guaranteed usage must cover at least the completed windows
			// (minus one window of start-up slack).
			want := c.slice * sim.Duration(fullWindows-1)
			if edf.GuaranteedUsedOf(c.dom) < want {
				t.Logf("seed %d: contract {%v,%v} got %v guaranteed, want >= %v",
					seed, c.slice, period, edf.GuaranteedUsedOf(c.dom), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 15)); err != nil {
		t.Fatal(err)
	}
}

// Property (paper §3.3, the EDF-over-shares contract): the CPU never idles while any runnable
// domain exists (work-conserving), for random loads.
func TestWorkConservingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		s := sim.New()
		edf := sched.NewEDFShares()
		k := nemesis.NewKernel(s, nemesis.Config{SingleAddressSpace: true}, edf)
		// One always-runnable hog guarantees there is always work.
		k.Spawn("hog", nemesis.SchedParams{BestEffort: true},
			func(c *nemesis.Ctx) { sched.RunHog(c, sim.Millisecond, 0) })
		// Random guaranteed domains that sleep and wake.
		for i := 0; i < 1+rng.Intn(3); i++ {
			period := sim.Duration(10+rng.Intn(40)) * sim.Millisecond
			work := period / sim.Duration(4+rng.Intn(8))
			k.Spawn("g", nemesis.SchedParams{Slice: work, Period: period},
				func(c *nemesis.Ctx) {
					for {
						c.Consume(work)
						c.Sleep(period - work)
					}
				})
		}
		s.RunUntil(300 * sim.Millisecond)
		k.Shutdown()
		return k.Stats.IdleNS == 0
	}
	if err := quick.Check(f, testutil.Quick(t, 15)); err != nil {
		t.Fatal(err)
	}
}

// Property: total CPU charged across all domains never exceeds elapsed
// virtual time (conservation of the processor).
func TestCPUConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		s := sim.New()
		edf := sched.NewEDFShares()
		k := nemesis.NewKernel(s, nemesis.Config{SwitchCost: sim.Microsecond, SingleAddressSpace: true}, edf)
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				k.Spawn("h", nemesis.SchedParams{BestEffort: true},
					func(c *nemesis.Ctx) { sched.RunHog(c, 500*sim.Microsecond, 0) })
			} else {
				period := sim.Duration(10+rng.Intn(20)) * sim.Millisecond
				k.Spawn("g", nemesis.SchedParams{Slice: period / 5, Period: period},
					func(c *nemesis.Ctx) { sched.RunHog(c, 300*sim.Microsecond, 0) })
			}
		}
		horizon := sim.Duration(100+rng.Intn(200)) * sim.Millisecond
		s.RunUntil(horizon)
		k.Shutdown()
		var total sim.Duration
		for _, d := range k.Domains() {
			total += d.Stats.Used
		}
		return total <= horizon
	}
	if err := quick.Check(f, testutil.Quick(t, 15)); err != nil {
		t.Fatal(err)
	}
}
