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
// switch (VCI rewrite) -> downlink -> demux -> sink. latency is what
// every frame must measure on the otherwise idle path.
func framePath(s *sim.Sim, frameBytes int, period, prop sim.Duration) (src *source, tl *traffic, latency sim.Duration) {
	const fabricDelay = sim.Microsecond
	reg := telemetry.NewRegistry()
	tl = &traffic{
		framesDelivered: reg.Counter(trafficKey("frames_delivered")),
		cellsDelivered:  reg.Counter(trafficKey("cells_delivered")),
		latency:         reg.Sample(trafficKey("latency_ns")),
		jitter:          reg.Sample(trafficKey("jitter_ns")),
	}
	sw := fabric.NewSwitch(s, "sw", 2, fabricDelay)
	dm := devices.NewDemux()
	dm.Register(20, &sink{sim: s, tl: tl, period: period})
	down := fabric.NewLink(s, fabric.Rate100M, prop, 0, dm)
	sw.AttachOutput(1, down)
	up := fabric.NewLink(s, fabric.Rate100M, prop, 0, sw.In(0))
	sw.Route(0, 10, 1, 20)
	src = &source{
		sim:     s,
		out:     up,
		vci:     10,
		period:  period,
		payload: make([]byte, frameBytes),
		sent:    reg.Counter(trafficKey("frames_sent")),
	}
	// Cut-through: the first cell crosses uplink, fabric and downlink;
	// the other n-1 follow one cell time apart.
	n := sim.Duration(atm.CellsFor(frameBytes))
	latency = up.CellTime() + prop + fabricDelay + down.CellTime() + prop + (n-1)*down.CellTime()
	return src, tl, latency
}

// TestFrameInFlightNeverSeesLaterStamp: with a propagation delay of
// several frame periods, three or four frames of one source are on the
// wire at once, all borrowing the same payload bytes. Each must still
// carry the stamp it was sent with: every latency sample equals the
// path latency exactly.
func TestFrameInFlightNeverSeesLaterStamp(t *testing.T) {
	const (
		period = 10 * sim.Millisecond
		prop   = 17 * sim.Millisecond
		frames = 200
	)
	t.Run("serial", func(t *testing.T) {
		s := sim.New()
		src, tl, want := framePath(s, 960, period, prop)
		src.start(0)
		s.RunFor(frames * period)
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
	})
}

// TestFrameSendAllocatesNothing: a frame's whole life — the source's
// tick, the uplink, the switch with its VCI rewrite, the downlink, the
// demux and the scoring sink — allocates nothing, whatever its length
// and whichever wheel its tick re-arms on: 1 ms periods stay on the near
// wheel, cluster-vod's 125 ms (8 Hz) ones go to the far wheel.
func TestFrameSendAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		frameBytes int
		period     sim.Duration
	}{
		{960, sim.Millisecond},
		{4800, sim.Millisecond},
		{480, 125 * sim.Millisecond},
	} {
		name := fmt.Sprintf("cells=%d", atm.CellsFor(c.frameBytes))
		if c.period != sim.Millisecond {
			name += fmt.Sprintf(",period=%v", c.period)
		}
		t.Run(name, func(t *testing.T) {
			s := sim.New()
			src, tl, want := framePath(s, c.frameBytes, c.period, sim.Microsecond)
			src.start(0)
			// Warm-up grows the event arena and the links' flight rings,
			// opens the samples' first chunk and drains a wheel bucket
			// whose array the next re-arm recycles.
			s.RunFor(10 * c.period)
			if n := testing.AllocsPerRun(1000, func() { s.RunFor(c.period) }); n != 0 {
				t.Fatalf("%v allocations per frame, want 0", n)
			}
			if got := tl.framesDelivered.Value(); got < 1000 || tl.latency.Max() != float64(want) {
				t.Fatalf("%d frames delivered, latency max %v, want %v", got, sim.Duration(tl.latency.Max()), want)
			}
			if got, want := tl.cellsDelivered.Value(), tl.framesDelivered.Value()*int64(atm.CellsFor(c.frameBytes)); got != want {
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
		sc.sim.RunFor(2 * cfg.Round) // cross a round boundary: playout may begin
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

// TestSourcesShareOnePayload: every synthetic source borrows the
// scenario's one payload buffer — a mesh's requests and a live
// scenario's channel encoders alike — so no source allocates a frame.
func TestSourcesShareOnePayload(t *testing.T) {
	for name, cfg := range map[string]Config{
		"mesh": {Pattern: Mesh, Workstations: 4, StreamsPerWS: 3},
		"live": liveCfg(),
	} {
		sc := Build(cfg)
		var payloads [][]byte
		for _, r := range sc.requests {
			payloads = append(payloads, r.src.payload)
		}
		for _, ch := range sc.channels {
			payloads = append(payloads, ch.src.payload)
		}
		if len(payloads) < 2 {
			t.Fatalf("%s: %d sources, want several", name, len(payloads))
		}
		for i, p := range payloads {
			if len(p) != sc.cfg.FrameBytes || &p[0] != &sc.payload[0] {
				t.Fatalf("%s: source %d has its own %d-byte payload", name, i, len(p))
			}
		}
	}
}
