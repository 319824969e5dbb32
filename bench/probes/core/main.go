// Probe core times the session verbs on a one-server site at
// cluster-vod geometry (480 B x 8 Hz titles of two 1 s rounds, flash-era
// disks): OpenSession + Close (the link, uplink and disk legs, and the
// primed first read every 256th op drains), the no-hold Probe of the
// same conjunction, and an in-place Renegotiate down and back up.
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fileserver"
	"repro/internal/sim"
)

const (
	viewers             = 8
	frameBytes, frameHz = 480, 8
	round               = sim.Second
	peakRate            = 50_000
)

func main() {
	budget := probe.Budget()

	cfg := core.DefaultSiteConfig()
	cfg.Ports = viewers + 1
	cfg.DiskParams = &disk.Params{ // pegload's -fast-disks geometry
		SeekMin: 20 * sim.Microsecond,
		SeekMax: 50 * sim.Microsecond,
		RotHalf: 25 * sim.Microsecond,
		Rate:    500_000_000,
	}
	site := core.NewSite(cfg)
	ss := site.NewStorageServer("vod", 256<<10, 64)
	var ports [viewers]int
	for i := range ports {
		ports[i] = site.Attach("v").Port
	}
	probe.Check(ss.Server.Create("t", true))
	probe.Check(ss.Server.Write("t", 0, make([]byte, 2*frameHz*frameBytes)))
	ss.Server.FS().Sync(probe.Check)
	site.Sim.Run()
	ss.EnableCM(fileserver.CMConfig{Round: round})
	spec := func(i int) core.SessionSpec {
		return core.SessionSpec{
			Class:      core.Guaranteed,
			InPort:     ss.Net.Port,
			OutPorts:   []int{ports[i%viewers]},
			PeakRate:   peakRate,
			CM:         ss.CM,
			Title:      "t",
			FrameBytes: frameBytes,
			FrameHz:    frameHz,
		}
	}

	i := 0
	open := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			s, err := site.OpenSession(spec(i))
			probe.Check(err)
			s.Close()
			if i++; i%256 == 0 {
				// The CM ticker never stops: a bounded advance, not Run.
				site.Sim.RunFor(2 * round)
			}
		}
	})
	probe.Emit("core.probe_open_ns", "ns", open.NsPerOp)
	probe.Emit("core.probe_open_bytes", "bytes", open.BytesPerOp)

	held, err := site.OpenSession(spec(0))
	probe.Check(err)
	report := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			if i++; !site.Probe(spec(i)).OK {
				probe.Fatal("probe refused with budget to spare")
			}
		}
	})
	probe.Emit("core.probe_probe_ns", "ns", report.NsPerOp)

	full := held.FullRate()
	reneg := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			probe.Check(held.Renegotiate(full / 2))
			probe.Check(held.Renegotiate(full))
		}
	})
	probe.Emit("core.probe_renegotiate_ns", "ns", reneg.NsPerOp)
}
