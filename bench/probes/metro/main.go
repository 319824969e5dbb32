// Probe metro times the federation's control plane at metro-flash
// geometry (four sites, 64 titles of four 0.5 s rounds at 4800 B x
// 20 Hz, 1 Gb/s links): a spilled OpenSession + Close for titles the
// home site does not hold (catalog walk, remote admission, trunk legs,
// core-switch route, home downlink), and one anti-entropy round over the
// converged catalog.
package main

import (
	"fmt"

	"repro/bench/internal/probe"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/metro"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

func main() {
	budget := probe.Budget()
	const (
		sites, titles       = 4, 64
		frameBytes, frameHz = 4800, 20
		round               = sim.Second / 2
		titleBytes          = 4 * frameHz / 2 * frameBytes
	)
	siteCfg := core.DefaultSiteConfig()
	siteCfg.LinkRate = 1_000_000_000
	siteCfg.Ports = 2
	m := metro.New(metro.Config{
		Sites: sites,
		Site:  siteCfg,
		Vod:   vodsite.Config{PeakRate: 1_100_000, ReplicationDisabled: true},
		// Spills never trigger a cross-site copy, so every measured open
		// takes the remote path.
		SpillThreshold: -1,
	})
	for i, mb := range m.Members() {
		mb.Ctrl.AddNode(mb.Site.NewStorageServer(fmt.Sprintf("s%d.vod", i), 256<<10, titles*2+16))
	}
	viewer := m.Member(0).Site.Attach("v")
	var names [titles]string
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		// Sites 1..3 only: home site 0 holds nothing.
		m.AddTitle(names[i], titleBytes, frameBytes, frameHz, []int{1 + i%3, 1 + (i+1)%3})
	}
	probe.Check(m.Place())
	m.Clock().Run()
	m.Start(fileserver.CMConfig{Round: round})

	i := 0
	spill := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			s, err := m.OpenSession(0, names[i%titles], viewer.Port)
			probe.Check(err)
			if !s.Spilled() {
				probe.Fatal("session served at home; the probe measures the spill path")
			}
			s.Close()
			if i++; i%256 == 0 {
				// Drain the primed reads; the CM tickers never stop.
				m.Clock().RunFor(2 * round)
			}
		}
	})
	probe.Emit("metro.probe_spill_open_ns", "ns", spill.NsPerOp)

	m.SyncCatalog() // converge once; measured rounds reconcile nothing
	sync := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			m.SyncCatalog()
		}
	})
	probe.Emit("metro.probe_catalog_sync_ns", "ns", sync.NsPerOp)
}
