package fabric

// Hardening for the switch-level multicast fan-out path: the
// copy-on-prune / cache-invalidation regression, the leave-all leak
// check, the single-output ≡ unicast equivalence, the per-leaf VCI
// rewrite of one fanned-out train, the coalescing cost model, and a
// fuzzer over random route-table mutation sequences (corpus in
// testdata/fuzz).

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
)

// burstOf builds a small AAL5 train on the given circuit.
func burstOf(t testing.TB, vci atm.VCI, bytes int) []atm.Cell {
	cells, err := atm.Segment(vci, 3, make([]byte, bytes))
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// fanoutSwitch builds a switch with one input link on port 0 and
// recorder-backed output links on ports 1..n-1.
func fanoutSwitch(s *sim.Sim, n int) (*Switch, *Link, []*Recorder) {
	sw := NewSwitch(s, "fan", n, 0)
	in := NewLink(s, Rate100M, 0, 0, sw.BindIn(0, s))
	recs := make([]*Recorder, n)
	for p := 1; p < n; p++ {
		recs[p] = NewRecorder(s)
		sw.AttachOutput(p, NewLink(s, Rate100M, 0, 0, recs[p]))
	}
	return sw, in, recs
}

// Regression: pruning one output leg of a multicast entry mid-burst
// must invalidate the input port's route cache — the next train must
// not reach the pruned leg, while trains already accepted (and the
// surviving legs) deliver untouched.
func TestMulticastPruneInvalidatesCacheMidBurst(t *testing.T) {
	s := sim.New()
	sw, in, recs := fanoutSwitch(s, 4)
	const vci = atm.VCI(9)
	for p := 1; p <= 3; p++ {
		sw.Route(0, vci, p, vci)
	}

	// Warm the cache and put a train in flight, then prune port 2 while
	// that train is mid-burst — already fanned out onto the output
	// links (the input delivered at ~38µs) but not yet handed to the
	// sinks (~76µs) — and feed a second train behind it.
	in.SendBurst(burstOf(t, vci, 400))
	s.RunFor(50 * sim.Microsecond)
	if !sw.UnrouteLeaf(0, vci, 2, vci) {
		t.Fatal("prune of a live leg reported no match")
	}
	in.SendBurst(burstOf(t, vci, 400))
	s.Run()

	if got := len(recs[1].Cells); got != 18 {
		t.Fatalf("surviving leg 1 got %d cells, want 18 (two trains)", got)
	}
	if got := len(recs[2].Cells); got != 9 {
		t.Fatalf("pruned leg 2 got %d cells, want 9 (only the in-flight train)", got)
	}
	if got := len(recs[3].Cells); got != 18 {
		t.Fatalf("surviving leg 3 got %d cells, want 18 (two trains)", got)
	}
	if got, want := sw.Leaves(0, vci), 2; got != want {
		t.Fatalf("Leaves = %d, want %d after prune", got, want)
	}
}

// Leak check: pruning every leg of a multicast entry removes the
// route-table entry, and traffic sent afterwards moves no per-port
// stats — every cell lands in Unrouted, exactly as before any leg
// joined.
func TestMulticastLeaveAllRestoresSwitchStats(t *testing.T) {
	s := sim.New()
	sw, in, recs := fanoutSwitch(s, 4)
	const vci = atm.VCI(5)

	entries0 := sw.RouteEntries()
	in.Send(atm.Cell{VCI: vci})
	s.Run()
	unrouted0 := sw.Stats().Unrouted

	for p := 1; p <= 3; p++ {
		sw.Route(0, vci, p, vci)
	}
	in.SendBurst(burstOf(t, vci, 200))
	s.Run()
	delivered := [4]int{}
	for p := 1; p <= 3; p++ {
		delivered[p] = len(recs[p].Cells)
		if delivered[p] == 0 {
			t.Fatalf("leg %d got no cells while joined", p)
		}
	}

	for p := 1; p <= 3; p++ {
		if !sw.UnrouteLeaf(0, vci, p, vci) {
			t.Fatalf("leave-all: leg %d missing", p)
		}
	}
	if got := sw.RouteEntries(); got != entries0 {
		t.Fatalf("leave-all leaked route entries: %d, want %d", got, entries0)
	}

	swStats := sw.Stats().Switched
	in.SendBurst(burstOf(t, vci, 200))
	in.Send(atm.Cell{VCI: vci})
	s.Run()
	for p := 1; p <= 3; p++ {
		if got := len(recs[p].Cells); got != delivered[p] {
			t.Fatalf("port %d stats moved after leave-all: %d cells, want %d", p, got, delivered[p])
		}
	}
	if got := sw.Stats().Switched; got != swStats {
		t.Fatalf("Switched moved after leave-all: %d, want %d", got, swStats)
	}
	if got := sw.Stats().Unrouted - unrouted0; got != 6 {
		t.Fatalf("post-leave traffic: Unrouted delta = %d, want 6", got)
	}
}

// A tree that churned down to a single output must forward
// bit-identically — same cells, same VCIs, same arrival instants — to
// a circuit that was always unicast.
func TestSingleOutputTreeMatchesUnicast(t *testing.T) {
	run := func(churn bool) (*Recorder, sim.Time) {
		s := sim.New()
		sw, in, recs := fanoutSwitch(s, 4)
		const vci = atm.VCI(11)
		sw.Route(0, vci, 1, 21)
		if churn {
			// Grow two more legs, then shed them before any traffic.
			sw.Route(0, vci, 2, 22)
			sw.Route(0, vci, 3, 23)
			if !sw.UnrouteLeaf(0, vci, 3, 23) || !sw.UnrouteLeaf(0, vci, 2, 22) {
				t.Fatal("churn legs missing at prune")
			}
		}
		for i := 0; i < 5; i++ {
			in.SendBurst(burstOf(t, vci, 300))
			s.RunFor(sim.Millisecond)
		}
		s.Run()
		return recs[1], s.Now()
	}
	uni, _ := run(false)
	tree, _ := run(true)
	if len(uni.Cells) != len(tree.Cells) {
		t.Fatalf("cell counts differ: unicast %d, single-output tree %d", len(uni.Cells), len(tree.Cells))
	}
	for i := range uni.Cells {
		if uni.Cells[i] != tree.Cells[i] || uni.Times[i] != tree.Times[i] {
			t.Fatalf("cell %d differs: unicast %+v@%v, tree %+v@%v",
				i, uni.Cells[i], uni.Times[i], tree.Cells[i], tree.Times[i])
		}
	}
}

// TestMulticastLeavesSeeOwnVCI: one train fanned out to leaves that
// keep, rewrite and re-rewrite the circuit reaches each leaf carrying
// that leaf's VCI and the same payload — as a descriptor at burst-aware
// sinks, as materialised cells at the recorders, through a second
// switch too — and the sender's own cells are never written.
func TestMulticastLeavesSeeOwnVCI(t *testing.T) {
	const inVCI = atm.VCI(5)
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i)
	}
	sent, err := atm.Segment(inVCI, 3, payload)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]atm.Cell(nil), sent...)
	lazy, err := atm.NewTrain(inVCI, 3, payload[:16], payload[16:])
	if err != nil {
		t.Fatal(err)
	}
	for name, train := range map[string]atm.Train{"lazy": lazy, "wrapped": atm.WrapCells(sent)} {
		s := sim.New()
		sw, in, recs := fanoutSwitch(s, 5)
		// Port 4 feeds a second switch that rewrites again onto a
		// burst-aware sink.
		var far trainSink
		sw2 := NewSwitch(s, "far", 2, 0)
		sw2.AttachOutput(1, NewLink(s, Rate100M, 0, 0, &far))
		sw.Output(4).SetSink(sw2.In(0))
		sw2.Route(0, 52, 1, 99)
		leafVCI := map[int]atm.VCI{1: inVCI, 2: 50, 3: 51, 4: 52}
		for p := 1; p <= 4; p++ {
			sw.Route(0, inVCI, p, leafVCI[p])
		}
		in.SendTrain(train)
		s.Run()
		for p := 1; p <= 3; p++ {
			want, _ := atm.Segment(leafVCI[p], 3, payload)
			if len(recs[p].Cells) != len(want) {
				t.Fatalf("%s: port %d got %d cells, want %d", name, p, len(recs[p].Cells), len(want))
			}
			for i := range want {
				if recs[p].Cells[i] != want[i] {
					t.Fatalf("%s: port %d cell %d is not the train under VCI %d", name, p, i, leafVCI[p])
				}
			}
		}
		want, _ := atm.Segment(99, 3, payload)
		got := far.last.Cells()
		if far.trains != 1 || far.last.VCI != 99 || len(got) != len(want) {
			t.Fatalf("%s: far sink saw %d trains, VCI %d, %d cells", name, far.trains, far.last.VCI, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: far sink cell %d is not the train under VCI 99", name, i)
			}
		}
	}
	for i := range sent {
		if sent[i] != pristine[i] {
			t.Fatalf("fan-out wrote to the sender's cell %d", i)
		}
	}
}

// The fan-out cost model at switch level: forwarding one train to N
// idle same-rate legs costs one delivery event for the input plus one
// coalesced event for all N legs — not one per leg — and every leg
// still sees exact per-cell arrival times.
func TestMulticastFanoutCoalescesDeliveries(t *testing.T) {
	events := func(nLegs int) int64 {
		s := sim.New()
		sw, in, recs := fanoutSwitch(s, nLegs+1)
		const vci = atm.VCI(3)
		for p := 1; p <= nLegs; p++ {
			sw.Route(0, vci, p, vci)
		}
		in.SendBurst(burstOf(t, vci, 480))
		s.Run()
		for p := 1; p <= nLegs; p++ {
			if len(recs[p].Cells) != 11 {
				t.Fatalf("legs=%d: port %d got %d cells, want 11", nLegs, p, len(recs[p].Cells))
			}
			if recs[p].Times[0] != recs[1].Times[0] {
				t.Fatalf("legs=%d: port %d first arrival %v differs from port 1's %v",
					nLegs, p, recs[p].Times[0], recs[1].Times[0])
			}
		}
		return s.Fired()
	}
	one := events(1)
	three := events(3)
	if three != one {
		t.Fatalf("fan-out events scale with legs: 3 legs fired %d events, 1 leg fired %d", three, one)
	}
}

// FuzzMulticastRouteTable drives the routing table with random
// add-leaf / prune-leaf / send sequences (including VCI rewrites) and
// checks the table against a shadow model: no panics, no leaked or
// phantom entries, prune results exactly as the model predicts, and a
// final teardown-all leaving the table empty.
func FuzzMulticastRouteTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 0, 0, 0, 1, 0, 1, 1})
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 4, 2, 1, 0, 0, 1, 1, 2, 3, 1, 1, 2, 4})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 1, 5, 0, 0, 2, 5, 2, 0, 0, 0, 1, 0, 1, 5, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const nports = 4
		s := sim.New()
		sw := NewSwitch(s, "fz", nports, 0)
		ins := make([]*Link, nports)
		for p := 0; p < nports; p++ {
			ins[p] = NewLink(s, Rate100M, 0, 0, sw.BindIn(p, s))
			sw.AttachOutput(p, NewLink(s, Rate100M, 0, 0, HandlerFunc(func(atm.Cell) {})))
		}
		model := make(map[routeKey][]routeVal)
		for i := 0; i+3 < len(ops); i += 4 {
			op := ops[i] % 3
			k := routeKey{int(ops[i+1]) % nports, atm.VCI(ops[i+1]%7) + 1}
			leg := routeVal{int(ops[i+2]) % nports, atm.VCI(ops[i+3]%7) + 1}
			switch op {
			case 0:
				sw.Route(k.port, k.vci, leg.port, leg.vci)
				model[k] = append(model[k], leg)
			case 1:
				want := false
				for j, l := range model[k] {
					if l == leg {
						model[k] = append(append([]routeVal(nil), model[k][:j]...), model[k][j+1:]...)
						if len(model[k]) == 0 {
							delete(model, k)
						}
						want = true
						break
					}
				}
				if got := sw.UnrouteLeaf(k.port, k.vci, leg.port, leg.vci); got != want {
					t.Fatalf("op %d: UnrouteLeaf(%v,%v) = %v, model says %v", i, k, leg, got, want)
				}
			case 2:
				ins[k.port].SendBurst(burstOf(t, k.vci, 100+int(ops[i+3])))
				ins[k.port].Send(atm.Cell{VCI: k.vci})
				s.RunFor(50 * sim.Microsecond)
			}
			if got := sw.Leaves(k.port, k.vci); got != len(model[k]) {
				t.Fatalf("op %d: Leaves(%v) = %d, model has %d", i, k, got, len(model[k]))
			}
		}
		s.Run()
		if got, want := sw.RouteEntries(), len(model); got != want {
			t.Fatalf("route table leak: %d entries, model has %d", got, want)
		}
		for k, legs := range model {
			for _, leg := range legs {
				if !sw.UnrouteLeaf(k.port, k.vci, leg.port, leg.vci) {
					t.Fatalf("teardown-all: leg %v of %v missing", leg, k)
				}
			}
		}
		if got := sw.RouteEntries(); got != 0 {
			t.Fatalf("teardown-all left %d route entries", got)
		}
		s.Run()
	})
}
