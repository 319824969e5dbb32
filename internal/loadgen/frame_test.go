package loadgen

import (
	"fmt"
	"testing"

	"repro/internal/atm"
	"repro/internal/devices"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// framePath wires one source to one sink by hand — source -> uplink ->
// switch (VCI rewrite) -> downlink -> demux -> sink — with the source,
// the uplink and the switch's input port on src's timeline and the
// downlink and the sink on dst's. latency is what every frame must
// measure on the otherwise idle path.
func framePath(src, dst *sim.Sim, frameBytes int, period, prop sim.Duration) (s *source, tl *traffic, latency sim.Duration) {
	const fabricDelay = sim.Microsecond
	reg := telemetry.NewRegistry(max(src.Partition(), dst.Partition()) + 1)
	tl = &traffic{
		sim:             dst,
		framesDelivered: reg.Counter(dst.Partition(), trafficKey("frames_delivered")),
		cellsDelivered:  reg.Counter(dst.Partition(), trafficKey("cells_delivered")),
		latency:         reg.Sample(dst.Partition(), trafficKey("latency_ns")),
		jitter:          reg.Sample(dst.Partition(), trafficKey("jitter_ns")),
	}
	sw := fabric.NewSwitch(src, "sw", 2, fabricDelay)
	dm := devices.NewDemux()
	dm.Register(20, &sink{sim: dst, tl: tl, period: period})
	down := fabric.NewLink(dst, fabric.Rate100M, prop, 0, dm)
	sw.AttachOutput(1, down)
	up := fabric.NewLink(src, fabric.Rate100M, prop, 0, sw.BindIn(0, src))
	sw.Route(0, 10, 1, 20)
	s = &source{
		sim:     src,
		out:     up,
		vci:     10,
		period:  period,
		payload: make([]byte, frameBytes),
		sent:    reg.Counter(src.Partition(), trafficKey("frames_sent")),
	}
	// Cut-through: the first cell crosses uplink, fabric and downlink;
	// the other n-1 follow one cell time apart.
	n := sim.Duration(atm.CellsFor(frameBytes))
	latency = up.CellTime() + prop + fabricDelay + down.CellTime() + prop + (n-1)*down.CellTime()
	return s, tl, latency
}

// TestFrameInFlightNeverSeesLaterStamp: with a propagation delay of
// several frame periods, three or four frames of one source are on the
// wire at once, all borrowing the same payload bytes. Each must still
// carry the stamp it was sent with: every latency sample equals the
// path latency exactly, serial and across two partitions.
func TestFrameInFlightNeverSeesLaterStamp(t *testing.T) {
	const (
		period = 10 * sim.Millisecond
		prop   = 17 * sim.Millisecond
		frames = 200
	)
	check := func(t *testing.T, tl *traffic, want sim.Duration) {
		t.Helper()
		if got := tl.framesDelivered.Value(); got < frames-4 {
			t.Fatalf("%d frames delivered, want at least %d", got, frames-4)
		}
		if lo, hi := tl.latency.Min(), tl.latency.Max(); lo != float64(want) || hi != float64(want) {
			t.Fatalf("latency ranges %v..%v over %d frames, want exactly %v: a frame in flight saw another frame's stamp",
				sim.Duration(lo), sim.Duration(hi), tl.latency.N(), want)
		}
		if tl.jitter.Max() != 0 {
			t.Fatalf("jitter max %v on an idle path", sim.Duration(tl.jitter.Max()))
		}
	}
	t.Run("serial", func(t *testing.T) {
		s := sim.New()
		src, tl, want := framePath(s, s, 960, period, prop)
		src.start(0)
		s.RunFor(frames * period)
		check(t, tl, want)
	})
	t.Run("partitions=2", func(t *testing.T) {
		// The lookahead is the switch's cross-partition forwarding
		// latency: fabric delay + one downlink cell time + propagation.
		clu := sim.NewCluster(2, sim.Microsecond+4240*sim.Nanosecond+prop)
		src, tl, want := framePath(clu.Part(0), clu.Part(1), 960, period, prop)
		src.start(0)
		clu.RunFor(frames * period)
		if clu.CrossDelivered() == 0 {
			t.Fatal("no train crossed partitions")
		}
		check(t, tl, want)
	})
}

// TestFrameSendAllocatesNothing: a frame's whole life — the source's
// tick, the uplink, the switch with its VCI rewrite, the downlink, the
// demux and the scoring sink — allocates nothing, whatever its length.
func TestFrameSendAllocatesNothing(t *testing.T) {
	for _, frameBytes := range []int{960, 4800} {
		t.Run(fmt.Sprintf("cells=%d", atm.CellsFor(frameBytes)), func(t *testing.T) {
			s := sim.New()
			src, tl, want := framePath(s, s, frameBytes, sim.Millisecond, sim.Microsecond)
			src.start(0)
			// Warm-up grows the event arena and the links' flight rings
			// and opens the samples' first chunk.
			s.RunFor(10 * sim.Millisecond)
			if n := testing.AllocsPerRun(1000, func() { s.RunFor(sim.Millisecond) }); n != 0 {
				t.Fatalf("%v allocations per frame, want 0", n)
			}
			if got := tl.framesDelivered.Value(); got < 1000 || tl.latency.Max() != float64(want) {
				t.Fatalf("%d frames delivered, latency max %v, want %v", got, sim.Duration(tl.latency.Max()), want)
			}
			if got, want := tl.cellsDelivered.Value(), tl.framesDelivered.Value()*int64(atm.CellsFor(frameBytes)); got != want {
				t.Fatalf("%d cells delivered, want %d", got, want)
			}
		})
	}
}

// TestPlayoutNeverWritesTheWake: a feeder's playout sends windows that
// are at the same time the RAM tier's wake, and followers play that
// wake by reference. After a run, a fresh follower must read exactly
// the stored title bytes — no frame header stamped into the cache.
func TestPlayoutNeverWritesTheWake(t *testing.T) {
	cfg := storageCfg()
	cfg.CacheMB = 16
	sc := Build(cfg)
	cfg = sc.cfg // with defaults applied
	if r := sc.Run(); r.FramesDelivered == 0 || r.Underruns != 0 {
		t.Fatalf("delivered=%d underruns=%d", r.FramesDelivered, r.Underruns)
	}
	ss := sc.Servers[0]
	checked := 0
	for i := 0; i < cfg.StreamsPerWS; i++ {
		title := titleName(i)
		cm, err := ss.CM.AdmitCached(title, cfg.FrameBytes, cfg.FrameHz)
		if err != nil {
			t.Fatalf("%s: the feeder's wake is not resident: %v", title, err)
		}
		sc.clock.RunFor(2 * cfg.Round) // cross a round boundary: playout may begin
		for {
			frame, ok := cm.NextFrame()
			if !ok {
				break
			}
			// preloadTitles writes byte(off*17) at every offset.
			for j, b := range frame {
				if want := frame[0] + byte(j*17); b != want {
					t.Fatalf("%s frame %d byte %d = %#x, stored title has %#x: playout wrote into the wake",
						title, checked, j, b, want)
				}
			}
			checked++
		}
		cm.Release()
	}
	if checked < 2*cfg.FrameHz*int(cfg.Round)/int(sim.Second) {
		t.Fatalf("only %d cached frames checked", checked)
	}
}
