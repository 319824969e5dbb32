package loadgen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestRequestLifecycle drives the one admit → wire → rewire → drop
// implementation through all three admitters — a direct request stopped
// and restarted, a cluster losing a node, a metro losing a site (the
// last two on a sharded kernel, so "the serving node's partition" means
// something) — and checks what must hold afterwards whoever admitted:
// an up request holds exactly one demux registration per viewer and its
// source sits on the serving endpoint's partition and uplink, a dropped
// one holds none and its source never ticks again, and the admitted
// score counts each re-admission exactly once.
func TestRequestLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		// fail takes streams away mid-run and reports how many were
		// re-admitted and how many were lost for good.
		fail func(sc *Scenario) (recovered, dropped int)
	}{
		{
			name: "direct",
			cfg:  Config{Adaptive: true, Workstations: 3, StreamsPerWS: 2, ReleaseEvery: -1},
			fail: func(sc *Scenario) (int, int) {
				gone, back := sc.requests[0], sc.requests[1]
				gone.Stop()
				back.Stop()
				if err := back.Restart(); err != nil {
					t.Fatalf("restart: %v", err)
				}
				return 1, 1
			},
		},
		{
			name: "cluster",
			cfg: Config{
				Cluster: true, Partitions: 2, Workstations: 12, StreamsPerWS: 2, Servers: 4, Titles: 8,
				ZipfS: 1.1, BaseReplicas: 2, FrameBytes: 4800, Round: 500 * sim.Millisecond, TitleRounds: 2,
			},
			fail: func(sc *Scenario) (int, int) {
				rep := sc.ctrl.FailNode(sc.ctrl.Nodes()[0])
				return rep.Recovered, rep.Dropped
			},
		},
		{
			name: "metro",
			cfg: func() Config {
				cfg := metroCfg()
				cfg.Partitions = 2
				return cfg
			}(),
			fail: func(sc *Scenario) (int, int) {
				rep := sc.metroCtl.FailSite(1)
				return rep.Recovered, rep.Dropped
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := Build(tc.cfg)
			sc.clock.RunFor(2 * sc.cfg.Round) // every admitted stream is playing
			audit := func(when string) (up int) {
				regs := map[*core.Endpoint]int{}
				for i, r := range sc.requests {
					if r.h == nil {
						if r.src.running || r.src.ev != nil || r.vci != 0 {
							t.Errorf("%s: down request %d still has a live source or circuit", when, i)
						}
						continue
					}
					up++
					regs[r.viewers[0]]++
					if from := r.h.From(); r.src.sim != from.Sim || r.src.out != from.ToSwitch {
						t.Errorf("%s: request %d's source is not on its serving node (port %d)", when, i, from.Port)
					}
					if !r.src.running || r.vci != r.h.ViewerVCI() {
						t.Errorf("%s: up request %d is not playing on its circuit", when, i)
					}
				}
				for _, v := range sc.viewers {
					if v.Demux.Registered() != regs[v] {
						t.Errorf("%s: viewer port %d holds %d demux registrations for %d up requests",
							when, v.Port, v.Demux.Registered(), regs[v])
					}
				}
				return up
			}
			upBefore, admittedBefore := audit("before"), sc.admitted
			if upBefore == 0 {
				t.Fatal("nothing admitted")
			}

			recovered, dropped := tc.fail(sc)
			if recovered == 0 {
				t.Fatalf("the failure re-admitted nothing (dropped %d) — bad geometry", dropped)
			}
			if sc.admitted != admittedBefore+recovered {
				t.Errorf("admitted went %d → %d across %d re-admissions", admittedBefore, sc.admitted, recovered)
			}
			// A stale tick of a stopped source may still be queued; it must
			// be the last.
			sent := sc.reg.CounterValue(trafficKey("frames_sent"))
			sc.clock.RunFor(2 * sc.cfg.Round)
			if up := audit("after"); up != upBefore-dropped {
				t.Errorf("%d requests up after the failure, want %d - %d dropped", up, upBefore, dropped)
			}
			if sc.reg.CounterValue(trafficKey("frames_sent")) == sent {
				t.Error("no survivor kept sending after the failure")
			}
		})
	}
}
