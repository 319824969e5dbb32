package loadgen

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// metroCfg is the flash-crowd federation: three single-node sites, a
// Zipf-hot catalog spread two sites wide, and every viewer homed on
// site 0 — far more demand than one site's disks can carry, so the
// over-subscription must spill across the trunks.
func metroCfg() Config {
	return Config{
		Metro:        true,
		Sites:        3,
		Workstations: 18,
		StreamsPerWS: 2,
		Servers:      1, // per site
		Titles:       6,
		SiteReplicas: 2,
		ZipfS:        1.6,
		FrameBytes:   4800,
		Round:        500 * sim.Millisecond,
		TitleRounds:  2,
		Duration:     8 * sim.Second,
	}
}

// TestMetroSpillBeatsNoSpill is the federation acceptance run: the
// flash crowd on site 0 admits strictly more sessions with spill
// admission than the identical run with spill disabled, the extra
// sessions really ride the trunks, and every admitted stream plays
// with zero Guaranteed underruns.
func TestMetroSpillBeatsNoSpill(t *testing.T) {
	res := Build(metroCfg()).Run()

	abl := metroCfg()
	abl.NoSpill = true
	ablRes := Build(abl).Run()

	if res.Admitted <= ablRes.Admitted {
		t.Fatalf("spill admitted %d, no-spill ablation %d — federation bought nothing",
			res.Admitted, ablRes.Admitted)
	}
	if res.Spilled == 0 {
		t.Fatal("no session spilled cross-site")
	}
	if ablRes.Spilled != 0 {
		t.Fatalf("ablation spilled %d sessions", ablRes.Spilled)
	}
	if res.Underruns != 0 {
		t.Fatalf("%d underruns among admitted streams", res.Underruns)
	}
	if res.FramesDelivered == 0 {
		t.Fatal("no frames delivered")
	}
	// The scoreboard's per-site census sees the spill: sessions are
	// served by more than one site.
	active := 0
	for _, c := range res.SiteServed {
		if c > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("site-served census %v — spill never left the home site", res.SiteServed)
	}
	if res.CatalogSyncs == 0 {
		t.Fatal("anti-entropy never ran")
	}
}

// TestMetroFailSiteRecovers kills a serving site mid-run: sessions it
// carried re-admit on survivors, the federation keeps serving from at
// least two sites, and the dead site serves nothing at the end.
func TestMetroFailSiteRecovers(t *testing.T) {
	cfg := metroCfg()
	cfg.FailSiteAt = 4 * sim.Second
	cfg.FailSite = 1
	res := Build(cfg).Run()

	if res.SiteRecovered == 0 {
		t.Fatalf("no session recovered from the site failure: %+v", res)
	}
	if res.SiteServed[1] != 0 {
		t.Fatalf("dead site still serves %d sessions", res.SiteServed[1])
	}
	active := 0
	for _, c := range res.SiteServed {
		if c > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("site-served census %v after failover, want >=2 active sites", res.SiteServed)
	}
	if res.FramesDelivered == 0 {
		t.Fatal("no frames delivered")
	}
}

// TestMetroReplicationFactorSweep: widening the per-title site
// replication factor monotonically trades storage for refusals — more
// holder sites, no fewer admissions.
func TestMetroReplicationFactorSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs three full federations")
	}
	prevAdmitted, prevRefused := -1, 0
	for r := 1; r <= 3; r++ {
		cfg := metroCfg()
		cfg.SiteReplicas = r
		cfg.SpillThreshold = -1 // isolate the factor: no lazy copies
		res := Build(cfg).Run()
		if prevAdmitted >= 0 {
			if res.Admitted < prevAdmitted {
				t.Fatalf("R=%d admitted %d < R=%d's %d", r, res.Admitted, r-1, prevAdmitted)
			}
			if res.SiteRefused > prevRefused {
				t.Fatalf("R=%d refused %d > R=%d's %d", r, res.SiteRefused, r-1, prevRefused)
			}
		}
		prevAdmitted, prevRefused = res.Admitted, res.SiteRefused
	}
}

// TestMetroSpillTraceHasTrunkLeg: every spilled admission in the
// shared session trace carries an explicit trunk-leg sample.
func TestMetroSpillTraceHasTrunkLeg(t *testing.T) {
	cfg := metroCfg()
	cfg.Trace = true
	sc := Build(cfg)
	res := sc.Run()
	if res.Spilled == 0 {
		t.Fatal("no spills to trace")
	}
	spilled := 0
	for _, ev := range sc.Metro().Tracer().Events() {
		if ev.Event != "spilled" {
			continue
		}
		spilled++
		trunk := false
		for _, leg := range ev.Legs {
			if leg.Leg == core.LegTrunk.String() {
				trunk = true
			}
		}
		if !trunk {
			t.Fatalf("spilled trace event without a trunk leg: %+v", ev)
		}
	}
	if int64(spilled) != res.Spilled {
		t.Fatalf("%d spilled trace events, scoreboard says %d", spilled, res.Spilled)
	}
}

// TestMetroDeterminism: spill admission, trunk crossings, anti-entropy
// and cross-site copies make the federation's run a pure function of
// its configuration.
func TestMetroDeterminism(t *testing.T) {
	a := Build(metroCfg()).Run()
	b := Build(metroCfg()).Run()
	stripWall(&a)
	stripWall(&b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}
