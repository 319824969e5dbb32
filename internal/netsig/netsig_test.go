package netsig_test

import (
	"errors"
	"testing"

	"repro/internal/atm"
	"repro/internal/fabric"
	"repro/internal/netsig"
	"repro/internal/sim"
)

func newSwitch(s *sim.Sim, rec *fabric.Recorder) (*fabric.Switch, *fabric.Link) {
	sw := fabric.NewSwitch(s, "sw", 4, 0)
	sw.AttachOutput(1, fabric.NewLink(s, fabric.Rate100M, 0, 0, rec))
	in := fabric.NewLink(s, fabric.Rate100M, 0, 0, sw.In(0))
	return sw, in
}

func TestEstablishRoutesCells(t *testing.T) {
	s := sim.New()
	rec := fabric.NewRecorder(s)
	sw, in := newSwitch(s, rec)
	m := netsig.NewManager(sw, fabric.Rate100M)
	c, err := m.Establish(0, []int{1}, 10_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	in.Send(atm.Cell{VCI: c.VCI})
	s.Run()
	if len(rec.Cells) != 1 {
		t.Fatalf("delivered %d cells", len(rec.Cells))
	}
	if m.Open() != 1 || m.Established != 1 {
		t.Fatalf("open=%d established=%d", m.Open(), m.Established)
	}
}

func TestAdmissionRefusesOverCommit(t *testing.T) {
	s := sim.New()
	sw, _ := newSwitch(s, fabric.NewRecorder(s))
	m := netsig.NewManager(sw, fabric.Rate100M)
	// Nine 10 Mb/s circuits fit a 100 Mb/s link; more are refused once
	// headroom is gone.
	for i := 0; i < 10; i++ {
		if _, err := m.Establish(0, []int{1}, 10_000_000, false); err != nil {
			t.Fatalf("circuit %d refused: %v", i, err)
		}
	}
	if _, err := m.Establish(0, []int{1}, 10_000_000, false); !errors.Is(err, netsig.ErrAdmission) {
		t.Fatalf("over-commit err = %v, want ErrAdmission", err)
	}
	if m.Refused != 1 {
		t.Fatalf("refused = %d", m.Refused)
	}
	if m.Committed(1) != 100_000_000 {
		t.Fatalf("committed = %d", m.Committed(1))
	}
}

func TestTearDownReleasesRateAndRoute(t *testing.T) {
	s := sim.New()
	rec := fabric.NewRecorder(s)
	sw, in := newSwitch(s, rec)
	m := netsig.NewManager(sw, fabric.Rate100M)
	c, _ := m.Establish(0, []int{1}, 60_000_000, false)
	if _, err := m.Establish(0, []int{1}, 60_000_000, false); err == nil {
		t.Fatal("second 60Mb/s circuit admitted on a 100Mb/s link")
	}
	if err := m.TearDown(c.ID); err != nil {
		t.Fatal(err)
	}
	if m.Committed(1) != 0 {
		t.Fatalf("committed after teardown = %d", m.Committed(1))
	}
	if _, err := m.Establish(0, []int{1}, 60_000_000, false); err != nil {
		t.Fatalf("capacity not released: %v", err)
	}
	// The old circuit no longer routes.
	in.Send(atm.Cell{VCI: c.VCI})
	s.Run()
	if len(rec.Cells) != 0 {
		t.Fatal("torn-down circuit still routes")
	}
	if err := m.TearDown(c.ID); !errors.Is(err, netsig.ErrNoCircuit) {
		t.Fatalf("double teardown err = %v", err)
	}
}

func TestEstablishPairSetsUpBoth(t *testing.T) {
	s := sim.New()
	sw, _ := newSwitch(s, fabric.NewRecorder(s))
	m := netsig.NewManager(sw, fabric.Rate100M)
	data, ctrl, err := m.EstablishPair(0, []int{1}, 25_000_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if data.VCI == ctrl.VCI {
		t.Fatal("data and control share a VCI")
	}
	if !ctrl.Ctrl || data.Ctrl {
		t.Fatal("control flags wrong")
	}
	if m.Committed(1) != 25_100_000 {
		t.Fatalf("committed = %d", m.Committed(1))
	}
}

func TestEstablishPairRollsBackOnCtrlRefusal(t *testing.T) {
	s := sim.New()
	sw, _ := newSwitch(s, fabric.NewRecorder(s))
	m := netsig.NewManager(sw, fabric.Rate100M)
	// Data fits exactly; the control circuit cannot.
	_, _, err := m.EstablishPair(0, []int{1}, 100_000_000, 100_000)
	if !errors.Is(err, netsig.ErrAdmission) {
		t.Fatalf("err = %v", err)
	}
	if m.Committed(1) != 0 {
		t.Fatalf("failed pair left %d committed", m.Committed(1))
	}
	if m.Open() != 0 {
		t.Fatal("failed pair left circuits open")
	}
}

// TestJoinTreeMulticastsAndAdmits: JoinTree extends an established
// circuit point-to-multipoint (the TV-director fan out), admitting the
// new leaf's rate on its output link.
func TestJoinTreeMulticastsAndAdmits(t *testing.T) {
	s := sim.New()
	recA := fabric.NewRecorder(s)
	recB := fabric.NewRecorder(s)
	sw := fabric.NewSwitch(s, "sw", 4, 0)
	sw.AttachOutput(1, fabric.NewLink(s, fabric.Rate100M, 0, 0, recA))
	sw.AttachOutput(2, fabric.NewLink(s, fabric.Rate100M, 0, 0, recB))
	in := fabric.NewLink(s, fabric.Rate100M, 0, 0, sw.In(0))
	m := netsig.NewManager(sw, fabric.Rate100M)
	m.SetPortCapacity(2, 5_000_000)

	c, err := m.Establish(0, []int{1}, 10_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	// Port 2's capacity (5 Mb/s) cannot take the 10 Mb/s leaf.
	if err := m.JoinTree(c.ID, 2); !errors.Is(err, netsig.ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission", err)
	}
	m.SetPortCapacity(2, 50_000_000)
	if err := m.JoinTree(c.ID, 2); err != nil {
		t.Fatal(err)
	}
	in.Send(atm.Cell{VCI: c.VCI})
	s.Run()
	if len(recA.Cells) != 1 || len(recB.Cells) != 1 {
		t.Fatalf("multicast delivered %d/%d", len(recA.Cells), len(recB.Cells))
	}
}

// TestUplinkAdmission: with uplink budgeting on, a sender's link into
// the switch is a budget of its own — charged once per circuit however
// many leaves fan out, refused when exhausted even though every leaf
// has room, and released in full on teardown.
func TestUplinkAdmission(t *testing.T) {
	s := sim.New()
	sw := fabric.NewSwitch(s, "sw", 4, 0)
	m := netsig.NewManager(sw, 100)
	m.EnableUplinkAdmission()
	m.SetUplinkCapacity(0, 50)

	// Multipoint: two leaves each charge their downlink, the uplink once.
	c, err := m.Establish(0, []int{1, 2}, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CommittedUplink(0); got != 30 {
		t.Fatalf("uplink committed %d after multipoint, want 30", got)
	}
	if m.Committed(1) != 30 || m.Committed(2) != 30 {
		t.Fatalf("leaf commits %d/%d, want 30/30", m.Committed(1), m.Committed(2))
	}

	// Leaves have 70 spare each, but the uplink has only 20.
	if _, err := m.Establish(0, []int{3}, 30, false); !errors.Is(err, netsig.ErrAdmission) {
		t.Fatalf("uplink over-commit not refused: %v", err)
	}
	if m.Committed(3) != 0 {
		t.Fatalf("refused circuit left %d committed on its leaf", m.Committed(3))
	}

	// A different sender is untouched by port 0's uplink budget.
	c2, err := m.Establish(1, []int{3}, 30, false)
	if err != nil {
		t.Fatalf("independent uplink refused: %v", err)
	}

	if err := m.TearDown(c.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.TearDown(c2.ID); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if m.CommittedUplink(p) != 0 || m.Committed(p) != 0 {
			t.Fatalf("port %d: uplink=%d downlink=%d committed after teardown",
				p, m.CommittedUplink(p), m.Committed(p))
		}
	}
}
