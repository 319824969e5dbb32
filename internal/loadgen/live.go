package loadgen

// Live mode: the live-event flash crowd. A handful of channels go on
// the air as switch-level multicast broadcasts (core.Broadcast), a
// Zipf-popularity churn of viewers joins and leaves them with
// exponentially distributed hold times, and a background population of
// disk-backed Guaranteed VoD sessions shares the same viewer links and
// server disks. The proof the scoreboard carries: the source transmits
// each cell train once no matter how many viewers (fanout_cells_saved
// counts the copies the switch manufactured for free), a join the link
// budget would refuse degrades that channel's subtree down the tier
// ladder instead of refusing, and the unicast ablation twin — one
// circuit and one transmitted copy per viewer — admits strictly fewer
// viewers at the same budgets.

import (
	"fmt"
	"math/rand"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vodsite"
)

// liveKey names the live plane's counters.
func liveKey(name string) telemetry.Key {
	return telemetry.Key{Node: "loadgen", Subsystem: "live", Name: name}
}

// liveSource is one channel's encoder: a CBR frame generator that
// transmits each frame once onto the shared tree (or once per viewer
// circuit in the unicast ablation). The churn engine keeps the vcis and
// viewers fields current.
type liveSource struct {
	sim     *sim.Sim
	out     *fabric.Link
	period  sim.Duration
	payload []byte
	seq     uint32
	tickF   func() // s.tick, bound once: a method value allocates per use

	// vcis are the circuits to transmit on: the tree's single VCI, or
	// one per live viewer in the unicast ablation.
	vcis []atm.VCI
	// viewers is the channel's current viewer count (multicast only),
	// used to score the copies the switch fan-out saved the source.
	viewers int

	sent  *telemetry.Counter // frames transmitted (per copy)
	cells *telemetry.Counter // cells transmitted (per copy)
	saved *telemetry.Counter // cells the switch replicated for free
}

func (s *liveSource) start(phase sim.Duration) {
	s.tickF = s.tick
	s.sim.After(phase, s.tickF)
}

func (s *liveSource) tick() {
	s.sim.After(s.period, s.tickF)
	for _, vci := range s.vcis {
		var t atm.Train
		stampTrain(&t, vci, s.payload, s.sim.Now(), s.seq)
		s.out.SendTrain(&t)
		s.sent.Inc()
		s.cells.Add(int64(t.Len()))
		if s.viewers > 1 {
			// The tree carries one copy; the switch manufactures the
			// other viewers-1 for free. The unicast ablation never sets
			// viewers, so its saved column is honestly zero.
			s.saved.Add(int64(s.viewers-1) * int64(t.Len()))
		}
	}
	s.seq++
}

// liveChannel is one on-air channel plus its encoder.
type liveChannel struct {
	b   *core.Broadcast
	src *liveSource
}

// liveJoinPlan is one pre-sampled churn event: viewer v joins channel
// ch at time at and holds for hold. The whole schedule is drawn from
// the seed at build time, so runtime ordering cannot perturb the
// sample sequence.
type liveJoinPlan struct {
	at, hold sim.Duration
	ch, v    int
}

// liveChurn admits the background VoD sessions, puts every channel on
// the air and pre-samples the churn schedule; the encoders start and the
// joins are scheduled when Run starts.
func (sc *Scenario) liveChurn() {
	cfg := sc.cfg
	n, viewers := cfg.Workstations, sc.viewers

	// Background VoD: unicast disk-backed Guaranteed sessions on the
	// same viewer links — the mixed live+stored load the paper's site
	// carries. Their underruns must stay zero no matter what the live
	// churn does to the shared budgets.
	for v := 0; v < cfg.VodStreams; v++ {
		sc.newStoredRequest(v%sc.titles, v, viewers[v%n])
	}

	// One camera per channel; every channel goes on the air before any
	// viewer exists (a fresh tree forwards nowhere).
	period := sim.Second / sim.Duration(cfg.FrameHz)
	sc.channels = make([]*liveChannel, cfg.Channels)
	for c := range sc.channels {
		cam := sc.site.Attach(fmt.Sprintf("cam%d", c))
		b, err := sc.site.OpenBroadcast(core.BroadcastSpec{
			InPort:     cam.Port,
			PeakRate:   cfg.PeakRate,
			Title:      fmt.Sprintf("ch%d", c),
			FrameBytes: cfg.FrameBytes,
			FrameHz:    cfg.FrameHz,
			Unicast:    cfg.Unicast,
		})
		if err != nil {
			panic(fmt.Sprintf("loadgen: channel ch%d refused at open: %v", c, err))
		}
		src := &liveSource{
			sim:     sc.sim,
			out:     cam.ToSwitch,
			period:  period,
			payload: sc.payload,
			sent:    sc.traffic().framesSent,
			cells:   sc.reg.Counter(liveKey("source_cells")),
			saved:   sc.reg.Counter(liveKey("fanout_saved")),
		}
		if !cfg.Unicast {
			src.vcis = []atm.VCI{b.VCI()}
			// The tree's VCI is fixed for the channel's lifetime: every
			// viewer endpoint can carry it, so the sinks register once up
			// front and branches route cells to them as joins come and go.
			for _, vp := range viewers {
				vp.Demux.Register(b.VCI(), &sink{sim: sc.sim, tl: sc.traffic(), period: period})
			}
		}
		sc.channels[c] = &liveChannel{b: b, src: src}
	}

	// The churn schedule: Zipf channel popularity, arrivals packed into
	// the front half of the run (the flash crowd), exponential holds.
	// Everything is sampled here, in one deterministic pass.
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := vodsite.NewZipf(cfg.Channels, cfg.ZipfS)
	window := max(cfg.Duration/2, 1)
	for k := 0; k < n*cfg.StreamsPerWS; k++ {
		hold := max(sim.Duration(float64(cfg.HoldMean)*rng.ExpFloat64()), 4*period)
		sc.livePlan = append(sc.livePlan, liveJoinPlan{
			at:   cfg.Duration/20 + sim.Duration(rng.Int63n(int64(window))),
			hold: hold,
			ch:   z.Sample(rng.Float64()),
			v:    k % n,
		})
	}
	sc.atRun = append(sc.atRun, sc.startLive)
}

// startLive starts the encoders and schedules the churn.
func (sc *Scenario) startLive() {
	period := sim.Second / sim.Duration(sc.cfg.FrameHz)
	for c, lc := range sc.channels {
		lc.src.start(sim.Duration(int64(c)*7919) % period)
	}
	for _, p := range sc.livePlan {
		sc.sim.After(p.at, func() { sc.liveJoin(p) })
	}
}

// liveJoin executes one planned join: admit the
// viewer (the core layer runs the subtree ladder and counts
// refusals), wire the ablation's per-viewer circuit, and schedule the
// leave. Refused joins are final — a flash-crowd viewer who cannot get
// the channel goes away.
func (sc *Scenario) liveJoin(p liveJoinPlan) {
	lc := sc.channels[p.ch]
	ep := sc.viewers[p.v]
	j, err := lc.b.Join(ep.Port)
	if err != nil {
		return
	}
	if sc.cfg.Unicast {
		ep.Demux.Register(j.VCI(), &sink{sim: sc.sim, tl: sc.traffic(), period: lc.src.period})
		lc.src.vcis = append(lc.src.vcis, j.VCI())
	} else {
		lc.src.viewers = lc.b.Viewers()
	}
	vci := j.VCI()
	sc.sim.After(p.hold, func() { sc.liveLeave(lc, ep, j, vci) })
}

// liveLeave executes one viewer's departure: the broadcast prunes the
// branch (and climbs the subtree back up) and the ablation's circuit
// and sink go with the viewer.
func (sc *Scenario) liveLeave(lc *liveChannel, ep *core.Endpoint, j *core.Join, vci atm.VCI) {
	if err := j.Leave(); err != nil {
		panic(fmt.Sprintf("loadgen: live leave: %v", err))
	}
	if sc.cfg.Unicast {
		ep.Demux.Unregister(vci)
		for i, v := range lc.src.vcis {
			if v == vci {
				lc.src.vcis = append(lc.src.vcis[:i], lc.src.vcis[i+1:]...)
				break
			}
		}
	} else {
		lc.src.viewers = lc.b.Viewers()
	}
}
