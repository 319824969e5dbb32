package fabric

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
)

// Regression: the one-entry per-port route cache must be dropped on
// every routing-table change. Once core-switch routes are installed
// dynamically (metro site join, spill rewires, failover), a stale
// cache would keep forwarding a circuit to its old leaf set.
func TestRouteCacheInvalidatedOnReroute(t *testing.T) {
	s := sim.New()
	sw := NewSwitch(s, "sw", 3, 0)
	in := NewLink(s, Rate100M, 0, 0, sw.BindIn(0, s))
	recA := NewRecorder(s)
	recB := NewRecorder(s)
	sw.AttachOutput(1, NewLink(s, Rate100M, 0, 0, recA))
	sw.AttachOutput(2, NewLink(s, Rate100M, 0, 0, recB))

	const vci = atm.VCI(7)
	sw.Route(0, vci, 1, 71)

	// Warm the input port's cache.
	in.Send(atm.Cell{VCI: vci})
	s.Run()
	if len(recA.Cells) != 1 || recA.Cells[0].VCI != 71 {
		t.Fatalf("warm-up: port 1 got %d cells, want 1 with VCI 71", len(recA.Cells))
	}

	// Re-route the same circuit to port 2 — the cached leaf set for
	// (port 0, vci 7) must not survive.
	sw.Unroute(0, vci)
	sw.Route(0, vci, 2, 72)
	in.Send(atm.Cell{VCI: vci})
	s.Run()
	if len(recA.Cells) != 1 {
		t.Fatalf("stale cache: port 1 got %d cells after reroute, want 1", len(recA.Cells))
	}
	if len(recB.Cells) != 1 || recB.Cells[0].VCI != 72 {
		t.Fatalf("reroute: port 2 got %d cells, want 1 with VCI 72", len(recB.Cells))
	}

	// Appending a leaf (point-to-multipoint) must also invalidate: the
	// cached single-leaf slice would otherwise hide the new leg.
	sw.Route(0, vci, 1, 73)
	in.Send(atm.Cell{VCI: vci})
	s.Run()
	if len(recB.Cells) != 2 {
		t.Fatalf("leaf append: port 2 got %d cells total, want 2", len(recB.Cells))
	}
	if len(recA.Cells) != 2 || recA.Cells[1].VCI != 73 {
		t.Fatalf("leaf append: port 1 got %d cells total, want 2 with new VCI 73", len(recA.Cells))
	}

	// Unrouting entirely must drop the circuit, not serve the cache.
	sw.Unroute(0, vci)
	in.Send(atm.Cell{VCI: vci})
	s.Run()
	if len(recA.Cells) != 2 || len(recB.Cells) != 2 {
		t.Fatalf("unroute: cells still delivered from a stale cache")
	}
	if st := sw.Stats(); st.Unrouted != 1 {
		t.Fatalf("unroute: Unrouted = %d, want 1", st.Unrouted)
	}
}

// Trunk budget bookkeeping: per-direction commit/release with
// headroom over the tighter direction.
func TestTrunkBudget(t *testing.T) {
	s := sim.New()
	edge := NewSwitch(s, "edge", 2, 0)
	core := NewSwitch(s, "core", 1, 0)
	tr := JoinTier(edge, 1, core, 0, s, Rate100M, 10*sim.Microsecond)

	if !tr.UpBudget.Commit(60_000_000) || !tr.DownBudget.Commit(40_000_000) {
		t.Fatal("commit within budget refused")
	}
	if tr.UpBudget.Commit(60_000_000) {
		t.Fatal("up-direction over-commit accepted")
	}
	if got, want := tr.Headroom(), 0.4; got != want {
		t.Fatalf("Headroom = %v, want %v", got, want)
	}
	tr.UpBudget.Release(60_000_000)
	tr.DownBudget.Release(40_000_000)
	if tr.CommittedUp() != 0 || tr.CommittedDown() != 0 {
		t.Fatalf("release left committed %d/%d", tr.CommittedUp(), tr.CommittedDown())
	}
	if edge.Output(1) != tr.Up || core.Output(0) != tr.Down {
		t.Fatal("JoinTier did not attach trunk links to both tiers")
	}
}
