package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/atm"
	"repro/internal/devices"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/stats"
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
	dm.Register(20, tl.newSink(s, period))
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
		tl.flush()
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
			// Warm-up grows the event arena and the links' flight rings
			// and drains a wheel bucket whose array the next re-arm
			// recycles.
			s.RunFor(10 * c.period)
			if n := testing.AllocsPerRun(1000, func() { s.RunFor(c.period) }); n != 0 {
				t.Fatalf("%v allocations per frame, want 0", n)
			}
			tl.flush()
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

// TestSinkRunsMatchPerFrameSample: a sink holds its latest latency and
// jitter as pending runs and hands a run on only when the value
// changes. After flush the scoreboard's samples must answer every
// quantile exactly as samples fed one value per frame do — including
// for a sink abandoned mid-run, with its runs still pending, as unwire
// leaves one.
func TestSinkRunsMatchPerFrameSample(t *testing.T) {
	const period = sim.Millisecond
	s := sim.New()
	reg := telemetry.NewRegistry()
	tl := &traffic{
		framesDelivered: reg.Counter(trafficKey("frames_delivered")),
		cellsDelivered:  reg.Counter(trafficKey("cells_delivered")),
		latency:         reg.Sample(trafficKey("latency_ns")),
		jitter:          reg.Sample(trafficKey("jitter_ns")),
	}
	sinks := []*sink{tl.newSink(s, period), tl.newSink(s, period), tl.newSink(s, period)}
	var latency, jitter stats.Sample
	last := make([]sim.Time, len(sinks))
	rng := rand.New(rand.NewSource(7))
	delay := []sim.Duration{40 * sim.Microsecond, 40 * sim.Microsecond, 41 * sim.Microsecond}
	for i := 1; i <= 3000; i++ {
		for j, k := range sinks {
			if j == 1 && i > 1700 {
				continue // abandoned: its frames stop arriving
			}
			// Mostly a constant delay, now and then a step to another
			// one, and a late frame every so often.
			if rng.Intn(100) == 0 {
				delay[j] = sim.Duration(30+rng.Intn(4)) * sim.Microsecond
			}
			at := sim.Time(i)*period + delay[j]
			if rng.Intn(40) == 0 {
				at += sim.Duration(1+rng.Intn(3)) * 100 * sim.Microsecond
			}
			stamp := at - delay[j]
			s.At(at, func() { k.frameDone(stamp, 1) })
			latency.Add(float64(at - stamp))
			if last[j] > 0 {
				jitter.Add(math.Abs(float64(at - last[j] - period)))
			}
			last[j] = at
		}
	}
	s.Run()
	tl.flush()
	for _, c := range []struct {
		name     string
		got, ref *stats.Sample
	}{{"latency", tl.latency, &latency}, {"jitter", tl.jitter, &jitter}} {
		if c.got.N() != c.ref.N() {
			t.Fatalf("%s: %d observations, want %d", c.name, c.got.N(), c.ref.N())
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := c.got.Quantile(q), c.ref.Quantile(q); got != want {
				t.Fatalf("%s: Q(%v) = %v, want %v", c.name, q, got, want)
			}
		}
		if c.got.Max() != c.ref.Max() || c.got.Min() != c.ref.Min() {
			t.Fatalf("%s: min/max %v/%v, want %v/%v", c.name, c.got.Min(), c.got.Max(), c.ref.Min(), c.ref.Max())
		}
	}
}
