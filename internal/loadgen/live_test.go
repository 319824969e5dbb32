package loadgen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// liveCfg is the flash-crowd live mix: five Zipf-popular channels, a
// join/leave churn of 48 planned viewers over six workstations, and a
// background population of Guaranteed VoD sessions on the same links.
// The link budget is sized so the hottest channels force the subtree
// tier ladder — the determinism runs must reproduce degrade/restore
// churn, not just a quiet fan-out.
func liveCfg() Config {
	return Config{
		Live:         true,
		Channels:     5,
		Workstations: 6,
		StreamsPerWS: 8,
		VodStreams:   4,
		FrameBytes:   4800,
		PeakRate:     30_000_000,
		HoldMean:     1500 * sim.Millisecond,
		Duration:     2 * sim.Second,
	}
}

// TestLiveMulticastBeatsUnicastAblation is the live acceptance run:
// at identical budgets the shared-tree admission admits strictly more
// viewers than the one-circuit-per-viewer ablation, the switch (not
// the source) manufactures the viewer copies, and the background
// Guaranteed VoD sessions ride out the churn with zero underruns.
func TestLiveMulticastBeatsUnicastAblation(t *testing.T) {
	res := Build(liveCfg()).Run()

	abl := liveCfg()
	abl.Unicast = true
	ablRes := Build(abl).Run()

	if res.LiveJoins <= ablRes.LiveJoins {
		t.Fatalf("multicast admitted %d joins, unicast ablation %d — the tree bought nothing",
			res.LiveJoins, ablRes.LiveJoins)
	}
	if res.FanoutRatio <= 1 {
		t.Fatalf("fan-out ratio %.2f — switch never replicated a train", res.FanoutRatio)
	}
	if res.FanoutCellsSaved == 0 {
		t.Fatal("no cells saved by switch fan-out")
	}
	if ablRes.FanoutCellsSaved != 0 {
		t.Fatalf("ablation claims %d saved cells", ablRes.FanoutCellsSaved)
	}
	if res.SubtreeDegraded == 0 {
		t.Fatal("churn never exercised the subtree tier ladder")
	}
	if res.Underruns != 0 {
		t.Fatalf("%d Guaranteed underruns under live churn", res.Underruns)
	}
	if res.FramesDelivered == 0 {
		t.Fatal("no frames delivered")
	}
}

// TestLiveDeterminism: the live run — joins, leaves, ladder moves and
// frame trains — is a pure function of its configuration, scoreboard
// and trace artifact alike.
func TestLiveDeterminism(t *testing.T) {
	run := func() (Result, []byte) {
		cfg := liveCfg()
		cfg.Trace = true
		sc := Build(cfg)
		res := sc.Run()
		var buf bytes.Buffer
		if err := sc.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		stripWall(&res)
		return res, buf.Bytes()
	}
	a, aTrace := run()
	b, bTrace := run()
	// The comparison must cover real churn: joins, leaves, at least one
	// ladder move.
	if a.LiveJoins == 0 || a.LiveLeaves == 0 || a.SubtreeDegraded == 0 {
		t.Fatalf("quiet run proves nothing: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if !bytes.Equal(aTrace, bTrace) {
		t.Fatalf("two runs' trace artifacts diverged (%d vs %d bytes)", len(aTrace), len(bTrace))
	}
}
