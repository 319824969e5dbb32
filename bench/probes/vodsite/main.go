// Probe vodsite times replica-selecting admission as cluster-vod's
// build wave pays it: one Admit over a 16-node site whose 32 titles are
// on every node (so sixteen candidates are probed and ranked) and its
// Release.
package main

import (
	"fmt"

	"repro/bench/internal/probe"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

func main() {
	budget := probe.Budget()
	const (
		nodes, viewers, titles = 16, 64, 32
		frameBytes, frameHz    = 480, 8
		round                  = sim.Second
	)
	cfg := core.DefaultSiteConfig()
	cfg.Ports = nodes + viewers
	cfg.DiskParams = &disk.Params{ // pegload's -fast-disks geometry
		SeekMin: 20 * sim.Microsecond,
		SeekMax: 50 * sim.Microsecond,
		RotHalf: 25 * sim.Microsecond,
		Rate:    500_000_000,
	}
	site := core.NewSite(cfg)
	ctrl := vodsite.New(site, vodsite.Config{
		PeakRate:            50_000,
		BaseReplicas:        nodes,
		ReplicationDisabled: true,
	})
	for i := 0; i < nodes; i++ {
		ctrl.AddNode(site.NewStorageServer(fmt.Sprintf("vod%d", i), 256<<10, titles*2+16))
	}
	var ports [viewers]int
	for i := range ports {
		ports[i] = site.Attach("v").Port
	}
	var names [titles]string
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		ctrl.AddTitle(names[i], 2*frameHz*frameBytes, frameBytes, frameHz)
	}
	probe.Check(ctrl.Place())
	site.Sim.Run()
	ctrl.Start(fileserver.CMConfig{Round: round})

	i := 0
	r := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			st, err := ctrl.Admit(names[i%titles], ports[i%viewers])
			probe.Check(err)
			st.Release()
			if i++; i%256 == 0 {
				// Drain the primed reads; the CM tickers never stop.
				site.Sim.RunFor(2 * round)
			}
		}
	})
	probe.Emit("vodsite.probe_admit_ns", "ns", r.NsPerOp)
}
