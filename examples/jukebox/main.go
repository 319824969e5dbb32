// Video jukebox: the §5 storage hierarchy end to end. Clips are
// recorded to the Pegasus File Server, cold ones migrate to a robotic
// tape library (their log segments reclaimed by the one-pass cleaner),
// and a viewer's request for a cold clip pays the recall — mount, wind,
// stream — before playback resumes at disk speed. The per-clip index
// stays on disk: it is metadata, tiny and hot.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fileserver"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/tertiary"
)

func main() {
	site := core.NewSite(core.DefaultSiteConfig())
	ws := site.NewWorkstation("studio")
	store := site.NewStorageServer("jukebox", 64<<10, 512)

	p := tertiary.DefaultParams()
	p.Tapes = 4
	p.TapeCapacity = 16 << 20
	lib := tertiary.New(site.Sim, p)
	mig := fileserver.NewMigrator(site.Sim, store.Server, lib)

	// Record three clips of one second each.
	cam, camEP := ws.AttachCamera(devices.CameraConfig{W: 320, H: 240, FPS: 25, Compress: true})
	cfg := cam.Config()
	clips := []string{"/jukebox/news", "/jukebox/match", "/jukebox/concert"}
	for _, clip := range clips {
		rec, err := store.RecordStream(clip, camEP, cfg.VCI, cfg.CtrlVCI)
		if err != nil {
			panic(err)
		}
		cam.Start()
		site.Sim.RunFor(sim.Second)
		cam.Stop()
		site.Sim.Run()
		if err := rec.Finalize(); err != nil {
			panic(err)
		}
		store.StopStream(camEP, cfg.VCI, cfg.CtrlVCI)
		flush(site.Sim, store.Server)
		fmt.Printf("recorded %-17s %3d frames\n", clip, rec.Frames())
	}

	// The two older clips go cold; migrate them to tape and let the
	// cleaner take back their segments.
	freeBefore := store.Server.FS().FreeSegments()
	for _, clip := range clips[:2] {
		var err error
		mig.Archive(clip, func(e error) { err = e })
		site.Sim.Run()
		if err != nil {
			panic(err)
		}
	}
	var cs lfs.CleanStats
	store.Server.FS().CleanPegasus(func(c lfs.CleanStats, err error) {
		if err != nil {
			panic(err)
		}
		cs = c
	})
	site.Sim.Run()
	fmt.Printf("archived 2 clips: %.1f MB on tape, cleaner freed %d segments (disk free %d -> %d)\n",
		float64(mig.ArchivedBytes())/1e6, cs.SegmentsCleaned,
		freeBefore, store.Server.FS().FreeSegments())

	// A viewer asks for the cold news clip: transparent read-through
	// recalls it from tape.
	t0 := site.Sim.Now()
	robot0, wind0 := lib.Stats.RobotTime, lib.Stats.WindTime
	var rerr error
	mig.Read("/jukebox/news", 0, 1, func(_ []byte, e error) { rerr = e })
	site.Sim.Run()
	if rerr != nil {
		panic(rerr)
	}
	fmt.Printf("cold request for /jukebox/news: recalled in %v (robot %v, wind %v of it; exchanges so far: %d)\n",
		site.Sim.Now()-t0, lib.Stats.RobotTime-robot0, lib.Stats.WindTime-wind0, lib.Stats.Exchanges)

	// Now resident again: playback through the index at disk latency.
	var player *fileserver.Player
	var perr error
	store.Server.OpenStream("/jukebox/news", func(pl *fileserver.Player, e error) { player, perr = pl, e })
	site.Sim.Run()
	if perr != nil {
		panic(perr)
	}
	t0 = site.Sim.Now()
	for i := 0; i < 5 && i < player.Frames(); i++ {
		player.ReadFrame(i, func(_ []byte, e error) {
			if e != nil {
				panic(e)
			}
		})
		site.Sim.Run()
	}
	fmt.Printf("playback resumed: 5 frames in %v, %d frames indexed\n",
		site.Sim.Now()-t0, player.Frames())

	// The hot clip never left the disk.
	fmt.Printf("resident clip %s: archived=%v, served at disk speed\n",
		clips[2], mig.Archived(clips[2]))
}

func flush(s *sim.Sim, sv *fileserver.Server) {
	var err error
	sv.Flush(func(e error) { err = e })
	s.Run()
	if err != nil {
		panic(err)
	}
}
