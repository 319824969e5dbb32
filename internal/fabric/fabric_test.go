package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/testutil"
)

func TestCellTimeAt100M(t *testing.T) {
	s := sim.New()
	l := NewLink(s, Rate100M, 0, 0, NewRecorder(s))
	// 53 bytes * 8 bits / 100 Mb/s = 4.24 µs
	if got := l.CellTime(); got != 4240 {
		t.Fatalf("CellTime = %dns, want 4240ns", got)
	}
}

func TestLinkDeliversAfterSerialisationAndPropagation(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	l := NewLink(s, Rate100M, 10*sim.Microsecond, 0, rec)
	l.Send(atm.Cell{VCI: 1})
	s.Run()
	if len(rec.Times) != 1 {
		t.Fatalf("delivered %d cells, want 1", len(rec.Times))
	}
	want := l.CellTime() + 10*sim.Microsecond
	if rec.Times[0] != want {
		t.Fatalf("delivery at %v, want %v", rec.Times[0], want)
	}
}

func TestLinkSerialisesBackToBackCells(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	l := NewLink(s, Rate100M, 0, 0, rec)
	const n = 100
	for i := 0; i < n; i++ {
		l.Send(atm.Cell{VCI: atm.VCI(i)})
	}
	s.Run()
	if len(rec.Times) != n {
		t.Fatalf("delivered %d, want %d", len(rec.Times), n)
	}
	ct := l.CellTime()
	for i, at := range rec.Times {
		want := sim.Time(i+1) * ct
		if at != want {
			t.Fatalf("cell %d delivered at %v, want %v", i, at, want)
		}
	}
}

func TestLinkThroughputMatchesRate(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	l := NewLink(s, Rate100M, 0, 0, rec)
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(atm.Cell{})
	}
	s.Run()
	span := rec.Times[len(rec.Times)-1].Seconds()
	gotBits := float64(n*atm.CellSize*8) / span
	if gotBits < 0.99*Rate100M || gotBits > 1.01*Rate100M {
		t.Fatalf("throughput = %.0f b/s, want ~%d", gotBits, Rate100M)
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	l := NewLink(s, Rate100M, 0, 4, rec)
	for i := 0; i < 10; i++ {
		l.Send(atm.Cell{})
	}
	s.Run()
	// One cell goes straight to the wire, four queue, five drop.
	if l.Stats.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", l.Stats.Dropped)
	}
	if len(rec.Cells) != 5 {
		t.Fatalf("delivered = %d, want 5", len(rec.Cells))
	}
}

func buildOneSwitchPath(s *sim.Sim, fabricDelay sim.Duration) (*Link, *Switch, *Recorder) {
	sw := NewSwitch(s, "sw0", 4, fabricDelay)
	rec := NewRecorder(s)
	out := NewLink(s, Rate100M, 0, 0, rec)
	sw.AttachOutput(1, out)
	in := NewLink(s, Rate100M, 0, 0, sw.In(0))
	sw.Route(0, 10, 1, 20)
	return in, sw, rec
}

func TestSwitchRoutesAndRemapsVCI(t *testing.T) {
	s := sim.New()
	in, sw, rec := buildOneSwitchPath(s, 2*sim.Microsecond)
	in.Send(atm.Cell{VCI: 10, PTI: atm.PTIUser1})
	s.Run()
	if len(rec.Cells) != 1 {
		t.Fatalf("delivered %d, want 1", len(rec.Cells))
	}
	if rec.Cells[0].VCI != 20 {
		t.Fatalf("VCI = %d, want 20 (remapped)", rec.Cells[0].VCI)
	}
	if sw.Stats().Switched != 1 {
		t.Fatalf("switched = %d, want 1", sw.Stats().Switched)
	}
	// Latency = 2 serialisations + fabric delay.
	want := 2*in.CellTime() + 2*sim.Microsecond
	if rec.Times[0] != want {
		t.Fatalf("latency %v, want %v", rec.Times[0], want)
	}
}

func TestSwitchDropsUnroutedCells(t *testing.T) {
	s := sim.New()
	in, sw, rec := buildOneSwitchPath(s, 0)
	in.Send(atm.Cell{VCI: 99})
	s.Run()
	if sw.Stats().Unrouted != 1 {
		t.Fatalf("unrouted = %d, want 1", sw.Stats().Unrouted)
	}
	if len(rec.Cells) != 0 {
		t.Fatalf("delivered %d, want 0", len(rec.Cells))
	}
}

func TestSwitchUnroute(t *testing.T) {
	s := sim.New()
	in, sw, rec := buildOneSwitchPath(s, 0)
	if !sw.Unroute(0, 10) {
		t.Fatal("Unroute existing entry returned false")
	}
	if sw.Unroute(0, 10) {
		t.Fatal("Unroute missing entry returned true")
	}
	in.Send(atm.Cell{VCI: 10})
	s.Run()
	if len(rec.Cells) != 0 {
		t.Fatal("cell delivered after Unroute")
	}
}

func TestOutputContentionSerialises(t *testing.T) {
	// Two input ports feeding one output: aggregate delivery rate equals
	// the output link rate, and nothing is lost with unbounded queues.
	s := sim.New()
	sw := NewSwitch(s, "sw0", 3, 0)
	rec := NewRecorder(s)
	out := NewLink(s, Rate100M, 0, 0, rec)
	sw.AttachOutput(2, out)
	inA := NewLink(s, Rate100M, 0, 0, sw.In(0))
	inB := NewLink(s, Rate100M, 0, 0, sw.In(1))
	sw.Route(0, 1, 2, 1)
	sw.Route(1, 2, 2, 2)
	const n = 500
	for i := 0; i < n; i++ {
		inA.Send(atm.Cell{VCI: 1})
		inB.Send(atm.Cell{VCI: 2})
	}
	s.Run()
	if len(rec.Cells) != 2*n {
		t.Fatalf("delivered %d, want %d", len(rec.Cells), 2*n)
	}
	span := (rec.Times[len(rec.Times)-1] - rec.Times[0]).Seconds()
	rate := float64((2*n-1)*atm.CellSize*8) / span
	if rate > 1.01*Rate100M {
		t.Fatalf("output rate %.0f exceeds link rate", rate)
	}
}

func TestPerVCOrderPreservedThroughTwoSwitches(t *testing.T) {
	s := sim.New()
	sw1 := NewSwitch(s, "sw1", 2, sim.Microsecond)
	sw2 := NewSwitch(s, "sw2", 2, sim.Microsecond)
	rec := NewRecorder(s)
	sw1.AttachOutput(1, NewLink(s, Rate100M, 5*sim.Microsecond, 0, sw2.In(0)))
	sw2.AttachOutput(1, NewLink(s, Rate100M, 5*sim.Microsecond, 0, rec))
	in := NewLink(s, Rate100M, 0, 0, sw1.In(0))
	sw1.Route(0, 7, 1, 8)
	sw2.Route(0, 8, 1, 9)
	const n = 200
	for i := 0; i < n; i++ {
		var c atm.Cell
		c.VCI = 7
		c.Payload[0] = byte(i)
		c.Payload[1] = byte(i >> 8)
		in.Send(c)
	}
	s.Run()
	if len(rec.Cells) != n {
		t.Fatalf("delivered %d, want %d", len(rec.Cells), n)
	}
	for i, c := range rec.Cells {
		got := int(c.Payload[0]) | int(c.Payload[1])<<8
		if got != i {
			t.Fatalf("cell %d carries seq %d: reordered", i, got)
		}
		if c.VCI != 9 {
			t.Fatalf("cell VCI = %d, want 9 after two remaps", c.VCI)
		}
	}
}

// Property: for any number of cells on one VC, the link preserves order
// and delivers exactly the cells sent (no loss, no duplication) when the
// queue is unbounded.
func TestLinkConservationProperty(t *testing.T) {
	f := func(seqs []byte) bool {
		s := sim.New()
		rec := NewRecorder(s)
		l := NewLink(s, Rate100M, 3*sim.Microsecond, 0, rec)
		for _, b := range seqs {
			var c atm.Cell
			c.Payload[0] = b
			l.Send(c)
		}
		s.Run()
		if len(rec.Cells) != len(seqs) {
			return false
		}
		for i, c := range rec.Cells {
			if c.Payload[0] != seqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchPanicsOnBadPort(t *testing.T) {
	s := sim.New()
	sw := NewSwitch(s, "sw", 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range port")
		}
	}()
	sw.Route(0, 1, 5, 1)
}

func TestNoOutportCounted(t *testing.T) {
	s := sim.New()
	sw := NewSwitch(s, "sw", 2, 0)
	in := NewLink(s, Rate100M, 0, 0, sw.In(0))
	sw.Route(0, 1, 1, 1) // port 1 has no attached output link
	in.Send(atm.Cell{VCI: 1})
	s.Run()
	if sw.Stats().NoOutport != 1 {
		t.Fatalf("NoOutport = %d, want 1", sw.Stats().NoOutport)
	}
}

func TestMulticastRoute(t *testing.T) {
	// One camera circuit fanned out to two leaves (point-to-multipoint).
	s := sim.New()
	sw := NewSwitch(s, "sw", 3, 0)
	recA := NewRecorder(s)
	recB := NewRecorder(s)
	sw.AttachOutput(1, NewLink(s, Rate100M, 0, 0, recA))
	sw.AttachOutput(2, NewLink(s, Rate100M, 0, 0, recB))
	in := NewLink(s, Rate100M, 0, 0, sw.In(0))
	sw.Route(0, 5, 1, 50)
	sw.Route(0, 5, 2, 51)
	const n = 20
	for i := 0; i < n; i++ {
		var c atm.Cell
		c.VCI = 5
		c.Payload[0] = byte(i)
		in.Send(c)
	}
	s.Run()
	if len(recA.Cells) != n || len(recB.Cells) != n {
		t.Fatalf("leaves got %d/%d cells, want %d each", len(recA.Cells), len(recB.Cells), n)
	}
	for i := 0; i < n; i++ {
		if recA.Cells[i].VCI != 50 || recB.Cells[i].VCI != 51 {
			t.Fatal("leaf VCIs not remapped independently")
		}
		if recA.Cells[i].Payload[0] != byte(i) || recB.Cells[i].Payload[0] != byte(i) {
			t.Fatal("multicast payload corrupted or reordered")
		}
	}
}
