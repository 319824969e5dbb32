// Videophone: the paper's motivating application (§2). Two multimedia
// workstations exchange synchronised audio and video. Each side's
// camera and microphone stream directly through the switch to the
// peer's display and speaker; the playback-control process merges the
// control streams and commits a common playout delay so lips and voice
// stay together.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/stats"
)

// side bundles one participant's devices.
type side struct {
	name  string
	ws    *core.Workstation
	cam   *devices.Camera
	camEP *core.Endpoint
	mic   *devices.AudioSource
	micEP *core.Endpoint
	disp  *devices.Display
	dspEP *core.Endpoint
	spkr  *devices.AudioSink

	sync    devices.SyncGroup
	vidLat  stats.Sample
	audGaps int64
}

func buildSide(site *core.Site, name string) *side {
	s := &side{name: name}
	s.ws = site.NewWorkstation(name)
	s.cam, s.camEP = s.ws.AttachCamera(devices.CameraConfig{W: 320, H: 240, FPS: 25, Compress: true})
	s.mic, s.micEP = s.ws.AttachAudioSource(devices.AudioSourceConfig{Rate: 8000})
	s.disp, s.dspEP = s.ws.AttachDisplay(640, 480)
	return s
}

// connect plumbs a's capture devices to b's rendering devices.
func connect(site *core.Site, a, b *side) {
	site.PlumbVideo(a.cam, a.camEP, b.disp, b.dspEP, 0, 0)
	var spkrEP *core.Endpoint
	b.spkr, spkrEP = b.ws.AttachAudioSink(a.mic.Config().VCI, 0)
	site.Patch(a.micEP, a.mic.Config().VCI, spkrEP)

	b.sync.Margin = sim.Millisecond
	b.disp.OnTile = func(w *devices.Window, g *media.TileGroup, t media.Tile, at sim.Time) {
		b.sync.Observe(g.Timestamp, at)
		b.vidLat.Add(float64(at - sim.Time(g.Timestamp)))
	}
	b.spkr.OnBlock = func(blk media.AudioBlock, at sim.Time) {
		b.sync.Observe(blk.Timestamp, at)
	}
}

func main() {
	site := core.NewSite(core.DefaultSiteConfig())
	alice := buildSide(site, "alice")
	bob := buildSide(site, "bob")
	connect(site, alice, bob)
	connect(site, bob, alice)

	// Start everything; probe for 300 ms, then commit playout delays.
	for _, s := range []*side{alice, bob} {
		s.cam.Start()
		s.mic.Start()
	}
	site.Sim.RunUntil(300 * sim.Millisecond)
	lateAtCommit := map[*side]int64{}
	for _, s := range []*side{alice, bob} {
		d := s.sync.Commit()
		s.spkr.Delay = d
		lateAtCommit[s] = s.spkr.Stats.Late // probe phase played on arrival
		fmt.Printf("%s: committed playout delay %v\n", s.name, d)
	}
	site.Sim.RunUntil(2 * sim.Second)
	for _, s := range []*side{alice, bob} {
		s.cam.Stop()
		s.mic.Stop()
	}
	site.Sim.Run()

	fmt.Println()
	fmt.Println("videophone — two seconds of conversation")
	for _, s := range []*side{alice, bob} {
		fmt.Printf("%s sees:\n", s.name)
		fmt.Printf("  video tiles rendered: %d (mean latency %v)\n",
			s.disp.Stats.Tiles, sim.Duration(s.vidLat.Mean()))
		fmt.Printf("  audio blocks played:  %d (late after sync: %d, gaps %d, mean transit %v, max jitter %v)\n",
			s.spkr.Stats.Played, s.spkr.Stats.Late-lateAtCommit[s], s.spkr.Stats.Gaps,
			sim.Duration(s.spkr.Stats.TransitNS.Mean()), sim.Duration(s.spkr.Stats.JitterNS.Max()))
	}
	fmt.Printf("\ncells through the switch: %d; CPU bytes copied: 0\n",
		site.Switch.Stats().Switched)
}
