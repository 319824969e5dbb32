package fabric

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
)

// TestBurstMatchesCellAccurateUncontended: on an uncontended
// link->switch->link->switch->link path, the batched train's computed
// per-cell arrival times and its materialised cells must be identical
// to the exact cell-by-cell model's — whether the train was described
// lazily or sent as ready-made cells, and wherever on the path a
// cell-accurate link forces real cells into existence.
func TestBurstMatchesCellAccurateUncontended(t *testing.T) {
	payload := make([]byte, 480)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	// exact is a bitmask over the three links (origin, mid-path, last).
	run := func(exact int, lazy bool) *Recorder {
		s := sim.New()
		rec := NewRecorder(s)
		sw1 := NewSwitch(s, "sw1", 2, sim.Microsecond)
		sw2 := NewSwitch(s, "sw2", 2, 2*sim.Microsecond)
		links := []*Link{
			NewLink(s, Rate100M, 2*sim.Microsecond, 0, sw1.In(0)),
			NewLink(s, Rate100M, 5*sim.Microsecond, 0, sw2.In(0)),
			NewLink(s, Rate100M, 3*sim.Microsecond, 0, rec),
		}
		sw1.AttachOutput(1, links[1])
		sw2.AttachOutput(1, links[2])
		sw1.Route(0, 7, 1, 8)
		sw2.Route(0, 8, 1, 9)
		for i, l := range links {
			l.SetCellAccurate(exact&(1<<i) != 0)
		}
		if lazy {
			tr, err := atm.NewTrain(7, 3, payload[:16], payload[16:])
			if err != nil {
				t.Fatal(err)
			}
			links[0].SendTrain(&tr)
		} else {
			cells, err := atm.Segment(7, 3, payload)
			if err != nil {
				t.Fatal(err)
			}
			links[0].SendBurst(cells)
		}
		s.Run()
		return rec
	}
	want := run(7, false)
	if len(want.Cells) != atm.CellsFor(len(payload)) || want.Cells[0].VCI != 9 {
		t.Fatalf("reference run delivered %d cells on VCI %d", len(want.Cells), want.Cells[0].VCI)
	}
	for exact := 0; exact < 8; exact++ {
		// A cell-accurate link fed by a batched one only learns of the
		// train at its last cell's arrival and sends from there: the same
		// cells, later (SetCellAccurate asks for the whole path). Every
		// other placement is exact.
		late := exact&1 == 0 && exact != 0
		wrapped, lazy := run(exact, false), run(exact, true)
		for name, got := range map[string]*Recorder{"wrapped": wrapped, "lazy": lazy} {
			if len(got.Cells) != len(want.Cells) {
				t.Fatalf("exact=%03b %s: delivered %d cells, want %d", exact, name, len(got.Cells), len(want.Cells))
			}
			for i := range want.Cells {
				if got.Cells[i] != want.Cells[i] {
					t.Fatalf("exact=%03b %s: cell %d differs from the cell-accurate run's", exact, name, i)
				}
				if got.Times[i] != wrapped.Times[i] {
					t.Fatalf("exact=%03b: cell %d of a lazy train arrives %v, of ready-made cells %v", exact, i, got.Times[i], wrapped.Times[i])
				}
				if !late && got.Times[i] != want.Times[i] || got.Times[i] < want.Times[i] {
					t.Fatalf("exact=%03b %s: cell %d arrives %v, cell-accurate %v", exact, name, i, got.Times[i], want.Times[i])
				}
			}
		}
	}
}

// TestUnicastTrainForwardingAllocatesNothing: a lazily described train
// crosses link -> switch -> link -> burst-aware sink without a single
// allocation — no cells, no copy-on-rewrite, no coalescing scratch.
func TestUnicastTrainForwardingAllocatesNothing(t *testing.T) {
	s := sim.New()
	var sink trainSink
	sw := NewSwitch(s, "sw", 2, sim.Microsecond)
	sw.AttachOutput(1, NewLink(s, Rate100M, sim.Microsecond, 0, &sink))
	in := NewLink(s, Rate100M, sim.Microsecond, 0, sw.In(0))
	sw.Route(0, 7, 1, 70)
	head, body := make([]byte, 16), make([]byte, 4784)
	send := func() {
		tr, _ := atm.NewTrain(7, 0, head, body)
		in.SendTrain(&tr)
		s.RunFor(sim.Millisecond)
	}
	send() // grow the flight rings and the event arena once
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("forwarding a unicast train allocates %v times per frame, want 0", n)
	}
	if sink.last.VCI != 70 || sink.last.Len() != 101 || sink.trains != 202 {
		t.Fatalf("sink saw %d trains, last VCI %d of %d cells", sink.trains, sink.last.VCI, sink.last.Len())
	}
}

// trainSink is a burst-aware sink keeping the last train it was handed.
type trainSink struct {
	trains int
	last   atm.Train
}

func (k *trainSink) HandleCell(atm.Cell)  { panic("trainSink: a burst-aware sink got a bare cell") }
func (k *trainSink) HandleBurst(b *Burst) { k.trains++; k.last = b.Train }

// TestCellAccurateOutputPacedByArrival: forwarding a batched train onto
// a cell-accurate output link that is faster than the input must not
// deliver cells before they have even arrived at the switch.
func TestCellAccurateOutputPacedByArrival(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	fast := NewLink(s, Rate960M, 0, 0, rec)
	fast.SetCellAccurate(true)
	sw := NewSwitch(s, "sw", 2, 0)
	sw.AttachOutput(1, fast)
	in := NewLink(s, Rate100M, 0, 0, sw.In(0))
	sw.Route(0, 5, 1, 5)
	cells, err := atm.Segment(5, 0, make([]byte, 480))
	if err != nil {
		t.Fatal(err)
	}
	n := len(cells)
	in.SendBurst(cells)
	s.Run()
	if len(rec.Times) != n {
		t.Fatalf("delivered %d cells, want %d", len(rec.Times), n)
	}
	ctIn, ctOut := in.CellTime(), fast.CellTime()
	for k, at := range rec.Times {
		// Cell k clears the input serialiser at (k+1)*ctIn; the fast
		// output cannot finish retransmitting it any earlier than one
		// of its own cell times after that.
		if earliest := sim.Time(k+1)*ctIn + ctOut; at < earliest {
			t.Fatalf("cell %d delivered at %v, before its earliest possible %v (causality)",
				k, at, earliest)
		}
	}
}

// echoSink is a burst-aware sink that, handed its first train, sends
// cells back onto the link delivering to it.
type echoSink struct {
	link          *Link
	echo          int
	bursts, cells int
}

func (k *echoSink) HandleCell(atm.Cell) { k.cells++ }
func (k *echoSink) HandleBurst(*Burst) {
	if k.bursts++; k.bursts == 1 {
		for i := 0; i < k.echo; i++ {
			k.link.Send(atm.Cell{VCI: 1})
		}
	}
}

// TestBurstHandlerSendingOnItsLink: a handler that sends on the link
// delivering to it grows that link's flight ring while it holds a
// pointer into the old one. The delivered slot must still read empty in
// the grown ring, or the cell that later reuses it is delivered as the
// old train again.
func TestBurstHandlerSendingOnItsLink(t *testing.T) {
	s := sim.New()
	k := &echoSink{echo: 100}
	k.link = NewLink(s, Rate100M, 0, 0, k)
	cells, err := atm.Segment(1, 0, make([]byte, 480))
	if err != nil {
		t.Fatal(err)
	}
	k.link.SendBurst(cells)
	s.Run()
	k.link.Send(atm.Cell{VCI: 1}) // reuses ring slot 0
	s.Run()
	if k.bursts != 1 || k.cells != k.echo+1 {
		t.Fatalf("sink saw %d trains and %d cells, want 1 and %d", k.bursts, k.cells, k.echo+1)
	}
}
