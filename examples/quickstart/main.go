// Quickstart: boot a Pegasus site, stream one second of video from an
// ATM camera to an ATM display through the switch, and print what
// happened. The whole data path is device-to-device: no CPU touches
// the video.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	site := core.NewSite(core.DefaultSiteConfig())
	ws := site.NewWorkstation("desk")

	// An ATM camera and an ATM display, each on its own switch port.
	cam, camEP := ws.AttachCamera(devices.CameraConfig{
		W: 320, H: 240, FPS: 25, Compress: true,
	})
	disp, dispEP := ws.AttachDisplay(1024, 768)

	// The management process plumbs the stream: window descriptor,
	// data circuit, control circuit.
	win := site.PlumbVideo(cam, camEP, disp, dispEP, 64, 64)

	// Measure capture-to-screen latency per tile.
	var lat stats.Sample
	disp.OnTile = func(w *devices.Window, g *media.TileGroup, t media.Tile, at sim.Time) {
		lat.Add(float64(at - sim.Time(g.Timestamp)))
	}

	cam.Start()
	site.Sim.RunUntil(sim.Second) // one second of virtual time
	cam.Stop()
	site.Sim.Run()

	x, y, _, _ := win.Bounds()
	fmt.Println("Pegasus quickstart — one second of video")
	fmt.Printf("  frames captured:     %d\n", cam.Stats.Frames)
	fmt.Printf("  raw pixel bytes:     %.1f MB\n", float64(cam.Stats.BytesRaw)/1e6)
	fmt.Printf("  bytes on the wire:   %.1f MB (compressed)\n", float64(cam.Stats.BytesSent)/1e6)
	fmt.Printf("  cells switched:      %d (%d unrouted)\n", site.Switch.Stats().Switched, site.Switch.Stats().Unrouted)
	fmt.Printf("  tiles on screen:     %d (window at %d,%d)\n", disp.Stats.Tiles, x, y)
	fmt.Printf("  tile latency:        mean %v, p99 %v, max %v\n",
		sim.Duration(lat.Mean()), sim.Duration(lat.Quantile(0.99)), sim.Duration(lat.Max()))
	cpu := sim.Duration(0)
	for _, d := range ws.Kernel.Domains() {
		cpu += d.Stats.Used
	}
	fmt.Printf("  workstation CPU:     %v (the video never touches it)\n", cpu)
}
