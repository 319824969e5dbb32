package netsig_test

import (
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/netsig"
	"repro/internal/sim"
)

func TestModifyRateShrinkReleasesBudget(t *testing.T) {
	s := sim.New()
	sw, _ := newSwitch(s, fabric.NewRecorder(s))
	m := netsig.NewManager(sw, fabric.Rate100M)
	c, err := m.Establish(0, []int{1}, 40_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ModifyRate(c.ID, 10_000_000); err != nil {
		t.Fatalf("shrink refused: %v", err)
	}
	if m.Committed(1) != 10_000_000 {
		t.Fatalf("committed = %d, want 10M", m.Committed(1))
	}
	if c.PeakRate != 10_000_000 {
		t.Fatalf("circuit rate = %d", c.PeakRate)
	}
	if m.Modified != 1 {
		t.Fatalf("modified = %d", m.Modified)
	}
	// Teardown must release the renegotiated rate, not the original.
	if err := m.TearDown(c.ID); err != nil {
		t.Fatal(err)
	}
	if m.Committed(1) != 0 {
		t.Fatalf("committed after teardown = %d, want 0", m.Committed(1))
	}
}

func TestModifyRateGrowAdmissionControlled(t *testing.T) {
	s := sim.New()
	sw, _ := newSwitch(s, fabric.NewRecorder(s))
	m := netsig.NewManager(sw, fabric.Rate100M)
	c, err := m.Establish(0, []int{1}, 10_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Establish(0, []int{1}, 80_000_000, false); err != nil {
		t.Fatal(err)
	}
	// 10 Mb/s of headroom left: growing to 20 fits, to 30 does not.
	if err := m.ModifyRate(c.ID, 20_000_000); err != nil {
		t.Fatalf("grow within headroom refused: %v", err)
	}
	if err := m.ModifyRate(c.ID, 30_000_000); !errors.Is(err, netsig.ErrAdmission) {
		t.Fatalf("over-commit grow err = %v, want ErrAdmission", err)
	}
	// The refused grow left everything as it was.
	if m.Committed(1) != 100_000_000 || c.PeakRate != 20_000_000 {
		t.Fatalf("after refusal: committed=%d rate=%d", m.Committed(1), c.PeakRate)
	}
	if m.Refused != 1 {
		t.Fatalf("refused = %d", m.Refused)
	}
}

func TestModifyRateAdjustsUplink(t *testing.T) {
	s := sim.New()
	sw, _ := newSwitch(s, fabric.NewRecorder(s))
	m := netsig.NewManager(sw, fabric.Rate100M)
	m.EnableUplinkAdmission()
	m.SetUplinkCapacity(0, 50_000_000)
	c, err := m.Establish(0, []int{1, 2}, 20_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	// The uplink carries the circuit once however many leaves it has;
	// growing past the uplink's capacity must refuse even though both
	// leaves have room.
	if err := m.ModifyRate(c.ID, 60_000_000); !errors.Is(err, netsig.ErrAdmission) {
		t.Fatalf("uplink over-commit err = %v, want ErrAdmission", err)
	}
	if err := m.ModifyRate(c.ID, 40_000_000); err != nil {
		t.Fatal(err)
	}
	if m.CommittedUplink(0) != 40_000_000 {
		t.Fatalf("uplink committed = %d", m.CommittedUplink(0))
	}
	if m.Committed(1) != 40_000_000 || m.Committed(2) != 40_000_000 {
		t.Fatalf("leaf committed = %d/%d", m.Committed(1), m.Committed(2))
	}
	if err := m.TearDown(c.ID); err != nil {
		t.Fatal(err)
	}
	if m.CommittedUplink(0) != 0 {
		t.Fatalf("uplink committed after teardown = %d", m.CommittedUplink(0))
	}
}

// TestModifyRateRejectsBestEffortAndUnknown: an unknown circuit is
// ErrNoCircuit, and a zero (best-effort) rate is refused both at
// Establish and as a renegotiation target.
func TestModifyRateRejectsBestEffortAndUnknown(t *testing.T) {
	s := sim.New()
	sw, _ := newSwitch(s, fabric.NewRecorder(s))
	m := netsig.NewManager(sw, fabric.Rate100M)
	if err := m.ModifyRate(99, 1_000_000); !errors.Is(err, netsig.ErrNoCircuit) {
		t.Fatalf("unknown circuit err = %v", err)
	}
	if _, err := m.Establish(0, []int{1}, 0, false); err == nil {
		t.Fatal("zero-rate circuit established; want error")
	}
	g, err := m.Establish(0, []int{1}, 1_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ModifyRate(g.ID, 0); err == nil {
		t.Fatal("renegotiation to zero accepted; want error")
	}
}
