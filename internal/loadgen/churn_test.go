package loadgen

import (
	"testing"

	"repro/internal/devices"
	"repro/internal/sim"
)

// TestChurnNoLeaks drives stream teardown and re-admission through the
// loadgen path and proves the control plane stays clean: no duplicate
// point-to-multipoint leaves at the switch, no leaked demux
// registrations, and admitted rate fully released and re-acquired.
func TestChurnNoLeaks(t *testing.T) {
	const n, m, rounds = 4, 3, 5
	sc := Build(Config{
		Pattern:      Mesh,
		Workstations: n,
		StreamsPerWS: m,
		Duration:     sim.Second, // driven manually below
	})
	site := sc.Site()
	streams := sc.Streams()
	if len(streams) != n*m {
		t.Fatalf("streams = %d, want %d", len(streams), n*m)
	}

	baseRoutes := site.Switch.RouteEntries()
	baseOpen := site.Signalling.Open()
	regs := func() int {
		eps := map[*devices.Demux]bool{}
		for _, st := range streams {
			for _, d := range st.viewers {
				eps[d.Demux] = true
			}
		}
		total := 0
		for d := range eps {
			total += d.Registered()
		}
		return total
	}
	baseRegs := regs()

	for _, st := range streams {
		st.Restart() // start sources
	}
	for round := 0; round < rounds; round++ {
		site.Sim.RunFor(50 * sim.Millisecond)
		for i, st := range streams {
			if i%2 != round%2 {
				continue
			}
			oldVCI := st.VCI()
			st.Stop()
			if site.Switch.Routed(st.from.Port, oldVCI) {
				t.Fatalf("round %d: circuit %d still routed after teardown", round, oldVCI)
			}
			site.Sim.RunFor(sim.Millisecond)
			if err := st.Restart(); err != nil {
				t.Fatalf("round %d restart stream %d: %v", round, i, err)
			}
		}
		// Invariants after every churn round.
		if got := site.Switch.RouteEntries(); got != baseRoutes {
			t.Fatalf("round %d: route entries %d, want %d (leak)", round, got, baseRoutes)
		}
		if got := site.Signalling.Open(); got != baseOpen {
			t.Fatalf("round %d: open circuits %d, want %d", round, got, baseOpen)
		}
		if got := regs(); got != baseRegs {
			t.Fatalf("round %d: demux registrations %d, want %d (leak)", round, got, baseRegs)
		}
		for i, st := range streams {
			if leaves := site.Switch.Leaves(st.from.Port, st.VCI()); leaves != 1 {
				t.Fatalf("round %d: stream %d has %d leaves, want 1 (duplicate leaf)",
					round, i, leaves)
			}
		}
	}

	// Streams must actually flow again after the final restart.
	before := sc.framesDeliveredTotal()
	site.Sim.RunFor(100 * sim.Millisecond)
	if sc.framesDeliveredTotal() <= before {
		t.Fatal("no frames delivered after churn")
	}
	// Re-admission accounting: every torn-down stream was re-admitted.
	if sc.tornDown == 0 || sc.admitted != n*m+sc.tornDown {
		t.Fatalf("admitted=%d tornDown=%d, want admitted = %d+tornDown",
			sc.admitted, sc.tornDown, n*m)
	}
	// No duplicate delivery: with every stream on a fresh VCI after
	// churn, nothing may arrive unrouted or double-registered.
	if site.Switch.Stats().Unrouted != 0 {
		// Cells in flight during a teardown legitimately arrive at the
		// switch after their route vanished; what must NOT happen is
		// sustained loss after restart. Check the tail window stayed
		// clean: rerun and compare.
		unroutedBefore := site.Switch.Stats().Unrouted
		site.Sim.RunFor(100 * sim.Millisecond)
		if site.Switch.Stats().Unrouted != unroutedBefore {
			t.Fatalf("unrouted cells still accumulating after churn settled: %d -> %d",
				unroutedBefore, site.Switch.Stats().Unrouted)
		}
	}
}

// TestStopIsIdempotent covers double-stop and restart-while-up.
func TestStopIsIdempotent(t *testing.T) {
	sc := Build(Config{Pattern: Mesh, Workstations: 2, StreamsPerWS: 1,
		Duration: sim.Second})
	st := sc.Streams()[0]
	st.Stop()
	st.Stop() // a double stop is a no-op
	if !st.Down() {
		t.Fatal("stream not down after Stop")
	}
	if err := st.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := st.Restart(); err != nil {
		t.Fatalf("restart while up: %v", err)
	}
	if sc.tornDown != 1 {
		t.Fatalf("tornDown = %d, want 1", sc.tornDown)
	}
}
