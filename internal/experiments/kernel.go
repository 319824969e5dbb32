package experiments

import (
	"fmt"

	"repro/internal/nemesis"
	"repro/internal/sched"
	"repro/internal/sim"
)

// E4Scheduling reproduces §3.3: EDF-over-shares keeps multimedia
// deadlines under load where timesharing baselines fail, while the QoS
// manager's admission keeps guarantees feasible.
func E4Scheduling() Result {
	res := Result{
		ID:    "E4",
		Title: "domain scheduling under load (§3.3)",
		Notes: "AV load: audio 2ms/10ms + video 8ms/40ms, against 3 CPU hogs, 2s run",
	}
	type outcome struct {
		missAudio, missVideo float64
		p99Audio, p99Video   sim.Duration
		hogShare             float64
		kernel               nemesis.KernelStats
	}
	run := func(mk func() nemesis.Scheduler, guaranteed bool) outcome {
		s := sim.New()
		k := nemesis.NewKernel(s, nemesis.Config{SwitchCost: 10 * sim.Microsecond, SingleAddressSpace: true}, mk())
		params := func(slice, period sim.Duration, w int) nemesis.SchedParams {
			if guaranteed {
				return nemesis.SchedParams{Slice: slice, Period: period, Weight: w}
			}
			return nemesis.SchedParams{BestEffort: true, Weight: w}
		}
		var audioRep, videoRep sched.PeriodicReport
		k.Spawn("audio", params(2*sim.Millisecond, 10*sim.Millisecond, 5), func(c *nemesis.Ctx) {
			sched.RunPeriodicInto(c, 2*sim.Millisecond, 10*sim.Millisecond, 200, &audioRep)
		})
		k.Spawn("video", params(8*sim.Millisecond, 40*sim.Millisecond, 5), func(c *nemesis.Ctx) {
			sched.RunPeriodicInto(c, 8*sim.Millisecond, 40*sim.Millisecond, 50, &videoRep)
		})
		var hogs []*nemesis.Domain
		for i := 0; i < 3; i++ {
			hogs = append(hogs, k.Spawn("hog", nemesis.SchedParams{BestEffort: true, Weight: 1},
				func(c *nemesis.Ctx) { sched.RunHog(c, sim.Millisecond, 0) }))
		}
		s.RunUntil(2 * sim.Second)
		k.Shutdown()
		var hogUsed sim.Duration
		for _, h := range hogs {
			hogUsed += h.Stats.Used
		}
		return outcome{
			missAudio: audioRep.MissRate(),
			missVideo: videoRep.MissRate(),
			p99Audio:  sim.Duration(audioRep.ResponseNS.Quantile(0.99)),
			p99Video:  sim.Duration(videoRep.ResponseNS.Quantile(0.99)),
			hogShare:  float64(hogUsed) / float64(2*sim.Second),
			kernel:    k.Stats,
		}
	}
	edf := run(func() nemesis.Scheduler { return sched.NewEDFShares() }, true)
	rr := run(func() nemesis.Scheduler { return sched.NewRoundRobin() }, false)
	prio := run(func() nemesis.Scheduler { return sched.NewPriority() }, false)
	pure := run(func() nemesis.Scheduler { return sched.NewPureEDF() }, true)

	row := func(name string, o outcome, paper string) {
		res.Addf(name, paper, "audio miss %s, video miss %s, hogs get %s",
			fmtPct(o.missAudio), fmtPct(o.missVideo), fmtPct(o.hogShare))
	}
	row("EDF over shares (Nemesis)", edf, "guarantees met, slack to hogs")
	row("round-robin (timesharing)", rr, "misses deadlines under load")
	row("static priority", prio, "AV ok only by starving others")
	row("pure EDF (no shares)", pure, "no isolation between classes")
	res.Addf("EDF over shares: p99 response", "inside each period",
		"audio %v of 10ms, video %v of 40ms", edf.p99Audio, edf.p99Video)
	ks := edf.kernel
	res.Addf("EDF over shares: kernel", "(no claim)", "%d dispatches, %d switches, %d preemptions, %d donations, idle %v",
		ks.Dispatches, ks.Switches, ks.Preemptions, ks.Donations, ks.IdleNS)

	// Priority's failure mode needs greed to show: a high-priority
	// domain that always has work starves everything below it; EDF
	// shares cap it at its contract instead.
	starve := func(mk func() nemesis.Scheduler, guaranteed bool) float64 {
		s := sim.New()
		k := nemesis.NewKernel(s, nemesis.Config{SingleAddressSpace: true}, mk())
		p := nemesis.SchedParams{BestEffort: true, Weight: 10}
		if guaranteed {
			p = nemesis.SchedParams{Slice: 8 * sim.Millisecond, Period: 10 * sim.Millisecond, Weight: 10}
		}
		k.Spawn("greedyAV", p, func(c *nemesis.Ctx) { sched.RunHog(c, sim.Millisecond, 0) })
		hog := k.Spawn("batch", nemesis.SchedParams{BestEffort: true, Weight: 1},
			func(c *nemesis.Ctx) { sched.RunHog(c, sim.Millisecond, 0) })
		s.RunUntil(sim.Second)
		k.Shutdown()
		return float64(hog.Stats.Used) / float64(sim.Second)
	}
	prioBatch := starve(func() nemesis.Scheduler { return sched.NewPriority() }, false)
	edfBatch := starve(func() nemesis.Scheduler { return sched.NewEDFShares() }, true)
	res.Addf("greedy AV: batch share, priority", "starved (0%)", "%s", fmtPct(prioBatch))
	res.Addf("greedy AV: batch share, EDF shares", "batch keeps a share", "%s", fmtPct(edfBatch))
	return res
}

// E5Events reproduces §3.4: synchronous signalling minimises
// client/server latency (processor donation); asynchronous signalling
// maximises a demultiplexer's throughput.
func E5Events() Result {
	res := Result{
		ID:    "E5",
		Title: "event signalling: synchronous vs asynchronous (§3.4)",
	}
	// (a) Notification latency, measured at the receiver: time from the
	// send to the server observing the event.
	latency := func(sync bool) sim.Duration {
		s := sim.New()
		k := nemesis.NewKernel(s, nemesis.Config{SwitchCost: 10 * sim.Microsecond, SingleAddressSpace: true}, sched.NewEDFShares())
		var sentAt sim.Time
		var total sim.Duration
		var observed int
		server := k.Spawn("server", nemesis.SchedParams{BestEffort: true}, func(c *nemesis.Ctx) {
			for {
				c.Wait()
				total += c.Now() - sentAt
				observed++
				c.Consume(5 * sim.Microsecond)
			}
		})
		const rounds = 100
		var ch *nemesis.EventChannel
		client := k.Spawn("client", nemesis.SchedParams{Slice: 5 * sim.Millisecond, Period: 10 * sim.Millisecond},
			func(c *nemesis.Ctx) {
				for i := 0; i < rounds; i++ {
					sentAt = c.Now()
					c.Send(ch, 1)
					// The sender has more work: async signalling makes
					// the receiver wait for it; sync donates the CPU.
					c.Consume(500 * sim.Microsecond)
					c.Sleep(5 * sim.Millisecond)
				}
			})
		ch = k.NewChannel("call", client, server, sync)
		k.Spawn("hog", nemesis.SchedParams{BestEffort: true}, func(c *nemesis.Ctx) {
			sched.RunHog(c, sim.Millisecond, 0)
		})
		s.RunUntil(sim.Second)
		k.Shutdown()
		if observed == 0 {
			return 0
		}
		return total / sim.Duration(observed)
	}
	syncLat := latency(true)
	asyncLat := latency(false)

	// (b) Demultiplexer throughput: a packet source signalling four
	// workers per "packet".
	throughput := func(sync bool) float64 {
		s := sim.New()
		k := nemesis.NewKernel(s, nemesis.Config{SwitchCost: 10 * sim.Microsecond, SingleAddressSpace: true}, sched.NewEDFShares())
		var delivered int64
		var workers []*nemesis.Domain
		for i := 0; i < 4; i++ {
			workers = append(workers, k.Spawn(fmt.Sprintf("worker%d", i), nemesis.SchedParams{BestEffort: true},
				func(c *nemesis.Ctx) {
					for {
						for _, p := range c.Wait() {
							delivered += p.Count
							_ = p
						}
						c.Consume(2 * sim.Microsecond)
					}
				}))
		}
		var chans []*nemesis.EventChannel
		demux := k.Spawn("demux", nemesis.SchedParams{Slice: 5 * sim.Millisecond, Period: 10 * sim.Millisecond},
			func(c *nemesis.Ctx) {
				for i := 0; ; i++ {
					c.Consume(sim.Microsecond) // classify one packet
					c.Send(chans[i%4], 1)
				}
			})
		for i := 0; i < 4; i++ {
			chans = append(chans, k.NewChannel("pkt", demux, workers[i], sync))
		}
		s.RunUntil(200 * sim.Millisecond)
		k.Shutdown()
		return float64(delivered) / 0.2
	}
	syncTput := throughput(true)
	asyncTput := throughput(false)

	res.Addf("sync call latency", "lowest latency for client/server", "%v", syncLat)
	res.Addf("async call latency", "waits for a scheduling pass", "%v", asyncLat)
	res.Addf("demux throughput, async", "most efficient for demultiplexing", "%.0f pkts/s", asyncTput)
	res.Addf("demux throughput, sync", "pays a switch per packet", "%.0f pkts/s", syncTput)
	return res
}

// E6AddressSpace reproduces §3.1: a single address space removes the
// virtual-address-alias cache flush from every context switch, which a
// protected-call ping-pong workload feels directly.
func E6AddressSpace() Result {
	res := Result{
		ID:    "E6",
		Title: "single address space vs per-process spaces (§3.1)",
		Notes: "500 cross-domain ping-pongs; flush cost 90µs models a virtually indexed cache",
	}
	run := func(single bool) (elapsed sim.Duration, switchOverhead sim.Duration) {
		s := sim.New()
		cfg := nemesis.Config{
			SwitchCost:         10 * sim.Microsecond,
			FlushCost:          90 * sim.Microsecond,
			SingleAddressSpace: single,
		}
		k := nemesis.NewKernel(s, cfg, sched.NewRoundRobin())
		server := k.Spawn("server", nemesis.SchedParams{BestEffort: true}, func(c *nemesis.Ctx) {
			for {
				c.Wait()
				c.Consume(10 * sim.Microsecond)
			}
		})
		var ch *nemesis.EventChannel
		k.Spawn("client", nemesis.SchedParams{BestEffort: true}, func(c *nemesis.Ctx) {
			for i := 0; i < 500; i++ {
				c.Consume(10 * sim.Microsecond)
				c.Send(ch, 1)
			}
			c.Kernel().Sim().Stop()
		})
		ch = k.NewChannel("pp", k.Domains()[1], server, true)
		s.Run()
		k.Shutdown()
		return s.Now(), k.Stats.SwitchNS
	}
	sasTime, sasOv := run(true)
	masTime, masOv := run(false)
	res.Addf("single AS total", "no alias flushes", "%v (switch overhead %v)", sasTime, sasOv)
	res.Addf("separate AS total", "flush per switch", "%v (switch overhead %v)", masTime, masOv)
	res.Addf("slowdown from aliases", "significant context-switch cost", "%.2fx", float64(masTime)/float64(sasTime))
	return res
}
