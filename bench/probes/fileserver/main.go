// Probe fileserver times the continuous-media round scheduler from its
// own API, with no fabric above it. Disk path: 64 streams over 32
// titles at cluster-vod geometry (480 B x 8 Hz, 1 s rounds, flash-era
// disks), one round consumed and refilled per op. Cache path: eight
// streams of one wholly resident title at metro-flash geometry (4800 B
// x 20 Hz, 0.5 s rounds, 32 MiB RAM tier), every refill an interval-
// cache hit.
package main

import (
	"fmt"
	"time"

	"repro/bench/internal/probe"
	"repro/internal/disk"
	"repro/internal/fileserver"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
)

// fastDisks is pegload's -fast-disks geometry.
var fastDisks = disk.Params{
	SeekMin: 20 * sim.Microsecond,
	SeekMax: 50 * sim.Microsecond,
	RotHalf: 25 * sim.Microsecond,
	Rate:    500_000_000,
}

type geometry struct {
	params              disk.Params
	frameBytes, frameHz int
	round               sim.Duration
	titleRounds, titles int
	cacheBytes          int64
}

func (g geometry) framesPerRound() int {
	return g.frameHz * int(g.round) / int(sim.Second)
}

// serve stores the titles and starts the service over them.
func serve(s *sim.Sim, g geometry) *fileserver.CMService {
	const segSize = 256 << 10
	titleBytes := g.titleRounds * g.framesPerRound() * g.frameBytes
	nseg := int64(g.titles*(titleBytes/segSize+2) + 16)
	fs := lfs.New(s, raid.New(s, g.params, segSize, nseg), lfs.DefaultConfig(segSize))
	sv := fileserver.NewServer(s, fs)
	for t := 0; t < g.titles; t++ {
		path := fmt.Sprintf("t%d", t)
		probe.Check(sv.Create(path, true))
		probe.Check(sv.Write(path, 0, make([]byte, titleBytes)))
	}
	fs.Sync(probe.Check)
	s.Run()
	return fileserver.NewCMService(sv, fileserver.CMConfig{Round: g.round, CacheBytes: g.cacheBytes})
}

// rounds measures one scheduler round over the streams: every stream
// plays a round of frames, then the clock advances a round so the
// scheduler refills them.
func rounds(budget time.Duration, s *sim.Sim, g geometry, svc *fileserver.CMService, streams []*fileserver.CMStream) probe.Result {
	r := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			for _, cm := range streams {
				for f := g.framesPerRound(); f > 0; f-- {
					cm.NextFrame()
				}
			}
			s.RunFor(g.round)
		}
	})
	if svc.Stats.Underruns != 0 || svc.Stats.RoundOverruns != 0 {
		probe.Fatal(fmt.Sprintf("%d underruns, %d round overruns while measuring",
			svc.Stats.Underruns, svc.Stats.RoundOverruns))
	}
	return r
}

func main() {
	budget := probe.Budget()

	s := sim.New()
	g := geometry{params: fastDisks, frameBytes: 480, frameHz: 8, round: sim.Second, titleRounds: 2, titles: 32}
	svc := serve(s, g)
	streams := make([]*fileserver.CMStream, 64)
	for i := range streams {
		cm, err := svc.Admit(fmt.Sprintf("t%d", i%g.titles), g.frameBytes, g.frameHz)
		probe.Check(err)
		streams[i] = cm
	}
	s.RunFor(2 * g.round) // first windows buffered
	r := rounds(budget, s, g, svc, streams)
	probe.Emit("fileserver.probe_round_ns_per_stream", "ns/stream", r.NsPerOp/float64(len(streams)))

	s = sim.New()
	g = geometry{params: disk.DefaultParams(), frameBytes: 4800, frameHz: 20, round: sim.Second / 2,
		titleRounds: 4, titles: 1, cacheBytes: 32 << 20}
	svc = serve(s, g)
	lead, err := svc.Admit("t0", g.frameBytes, g.frameHz)
	probe.Check(err)
	streams = []*fileserver.CMStream{lead}
	// The leader plays the title through once; after that the whole
	// wake is resident and every later stream is admitted cache-served.
	for i := 0; i < g.titleRounds+2; i++ {
		for f := g.framesPerRound(); f > 0 && lead.Ready(); f-- {
			lead.NextFrame()
		}
		s.RunFor(g.round)
	}
	for len(streams) < 8 {
		cm, err := svc.AdmitCached("t0", g.frameBytes, g.frameHz)
		probe.Check(err)
		streams = append(streams, cm)
	}
	s.RunFor(g.round) // followers cross a round boundary and start
	svc.Stats.Underruns = 0
	hits := svc.Stats.CacheHits
	r = rounds(budget, s, g, svc, streams)
	if svc.Stats.CacheHits == hits {
		probe.Fatal("no cache hits while measuring")
	}
	probe.Emit("fileserver.probe_cache_hit_ns", "ns", r.NsPerOp/float64(len(streams)))
	probe.Emit("fileserver.probe_cache_hit_bytes", "bytes", r.BytesPerOp/float64(len(streams)))
}
