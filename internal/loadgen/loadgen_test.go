package loadgen

import (
	"testing"

	"repro/internal/sim"
)

func TestMeshAdmitsAndDelivers(t *testing.T) {
	sc := Build(Config{
		Pattern:      Mesh,
		Workstations: 4,
		StreamsPerWS: 2,
		Duration:     200 * sim.Millisecond,
	})
	r := sc.Run()
	if r.Admitted != 8 || r.Rejected != 0 {
		t.Fatalf("admitted=%d rejected=%d, want 8/0", r.Admitted, r.Rejected)
	}
	if r.FramesSent == 0 {
		t.Fatal("no frames sent")
	}
	// Everything sent early enough to land within the run must arrive;
	// at most one in-flight frame per stream may be outstanding.
	if r.FramesDelivered < r.FramesSent-8 || r.FramesDelivered > r.FramesSent {
		t.Fatalf("delivered=%d of sent=%d", r.FramesDelivered, r.FramesSent)
	}
	if r.LatencyP50 <= 0 || r.LatencyMax < r.LatencyP99 || r.LatencyP99 < r.LatencyP50 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v max=%v",
			r.LatencyP50, r.LatencyP99, r.LatencyMax)
	}
	// Uncontended CBR streams on dedicated circuits complete like
	// clockwork: completion jitter should be identically zero.
	if r.JitterP99 != 0 {
		t.Fatalf("jitter p99 = %v, want 0 on an uncontended mesh", sim.Duration(r.JitterP99))
	}
	if sc.Site().Switch.Stats().Unrouted != 0 {
		t.Fatalf("unrouted cells: %d", sc.Site().Switch.Stats().Unrouted)
	}
}

func TestMeshOverload(t *testing.T) {
	// 40 Mb/s per stream × 4 streams per 100 Mb/s source port: admission
	// must refuse the excess legs.
	sc := Build(Config{
		Pattern:      Mesh,
		Workstations: 3,
		StreamsPerWS: 4,
		PeakRate:     40_000_000,
		Duration:     50 * sim.Millisecond,
	})
	r := sc.Run()
	if r.Rejected == 0 {
		t.Fatal("oversubscribed site admitted everything")
	}
	if r.Admitted+r.Rejected != 12 {
		t.Fatalf("admitted+rejected = %d, want 12", r.Admitted+r.Rejected)
	}
	// Mesh streams have one leg each, so signalling's refusal count must
	// match loadgen's rejected-leg count exactly.
	if int(sc.Site().Signalling.Refused) != r.Rejected {
		t.Fatalf("signalling refused = %d, loadgen rejected = %d",
			sc.Site().Signalling.Refused, r.Rejected)
	}
}

func TestVoDFanout(t *testing.T) {
	sc := Build(Config{
		Pattern:      VoD,
		Workstations: 6,
		StreamsPerWS: 2,
		Servers:      1,
		Duration:     100 * sim.Millisecond,
	})
	r := sc.Run()
	if r.Admitted != 12 {
		t.Fatalf("admitted legs = %d, want 12", r.Admitted)
	}
	// Two titles, each sent once per frame period but fanned out to six
	// viewers: deliveries must exceed transmissions.
	if r.FramesDelivered <= r.FramesSent {
		t.Fatalf("no fan-out: sent=%d delivered=%d", r.FramesSent, r.FramesDelivered)
	}
	for _, st := range sc.Streams() {
		if st.Down() {
			continue
		}
		leaves := sc.Site().Switch.Leaves(st.from.Port, st.VCI())
		if leaves != len(st.viewers) {
			t.Fatalf("title fan-out %d, want %d leaves", leaves, len(st.viewers))
		}
	}
}

// TestCellAccurateEquivalence is the validation hook for the batched
// fast path: on an uncontended site, the arithmetic cell-train timing
// must reproduce the exact cell-by-cell model's frame latencies.
func TestCellAccurateEquivalence(t *testing.T) {
	cfg := Config{
		Pattern:      Mesh,
		Workstations: 3,
		StreamsPerWS: 1,
		Duration:     100 * sim.Millisecond,
	}
	fast := Build(cfg).Run()
	cfg.CellAccurate = true
	exact := Build(cfg).Run()

	if fast.FramesDelivered != exact.FramesDelivered {
		t.Fatalf("deliveries differ: fast=%d exact=%d", fast.FramesDelivered, exact.FramesDelivered)
	}
	for _, q := range []struct {
		name       string
		fast, slow float64
	}{
		{"latency p50", fast.LatencyP50, exact.LatencyP50},
		{"latency p99", fast.LatencyP99, exact.LatencyP99},
		{"latency max", fast.LatencyMax, exact.LatencyMax},
	} {
		if q.fast != q.slow {
			t.Fatalf("%s: batched %v != cell-accurate %v",
				q.name, sim.Duration(q.fast), sim.Duration(q.slow))
		}
	}
	if fast.EventsFired >= exact.EventsFired {
		t.Fatalf("fast path fired %d events, cell-accurate %d — batching saved nothing",
			fast.EventsFired, exact.EventsFired)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Pattern: Mesh, Workstations: 4, StreamsPerWS: 3,
		Duration: 100 * sim.Millisecond}
	a := Build(cfg).Run()
	b := Build(cfg).Run()
	if a.FramesSent != b.FramesSent || a.FramesDelivered != b.FramesDelivered ||
		a.EventsFired != b.EventsFired || a.LatencyP99 != b.LatencyP99 {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

// TestSiteScale500 is the acceptance run: 500 admitted streams for 10
// simulated seconds, completing within tier-1 time.
func TestSiteScale500(t *testing.T) {
	if testing.Short() {
		t.Skip("site-scale run skipped in short mode")
	}
	sc := Build(Config{
		Pattern:      Mesh,
		Workstations: 50,
		StreamsPerWS: 10,
		Duration:     10 * sim.Second,
	})
	r := sc.Run()
	if r.Admitted != 500 {
		t.Fatalf("admitted = %d, want 500", r.Admitted)
	}
	if r.FramesDelivered < 490_000 {
		t.Fatalf("delivered only %d frames of ~500000", r.FramesDelivered)
	}
	t.Logf("\n%s", r)
}
