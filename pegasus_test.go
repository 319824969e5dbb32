package pegasus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/sim"
)

// TestDeterminismAcrossRuns plays a compressed camera into a display
// twice and checks both runs deliver the same tiles and switch the same
// cells.
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int64, int64) {
		site := core.NewSite(core.DefaultSiteConfig())
		ws := site.NewWorkstation("a")
		cam, camEP := ws.AttachCamera(devices.CameraConfig{W: 64, H: 48, FPS: 25, Compress: true})
		disp, dispEP := ws.AttachDisplay(640, 480)
		site.PlumbVideo(cam, camEP, disp, dispEP, 0, 0)
		cam.Start()
		site.Sim.RunFor(sim.Second / 5)
		cam.Stop()
		site.Sim.Run()
		return disp.Stats.Tiles, site.Switch.Stats().Switched
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", t1, c1, t2, c2)
	}
}
