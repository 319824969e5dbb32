package core_test

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fabric"
	"repro/internal/fileserver"
	"repro/internal/invoke"
	"repro/internal/media"
	"repro/internal/nemesis"
	"repro/internal/rpc"
	"repro/internal/sim"
)

func TestVideoPhonePathEndToEnd(t *testing.T) {
	// Fig 1/Fig 4: camera on workstation A streams to a display on
	// workstation B through the switch. No kernel domain consumes any
	// CPU for the video; pixels arrive intact.
	site := core.NewSite(core.DefaultSiteConfig())
	wa := site.NewWorkstation("A")
	wb := site.NewWorkstation("B")

	cam, camEP := wa.AttachCamera(devices.CameraConfig{W: 64, H: 48, FPS: 25})
	disp, dispEP := wb.AttachDisplay(640, 480)
	site.PlumbVideo(cam, camEP, disp, dispEP, 16, 16)

	cam.Start()
	site.Sim.RunUntil(2 * sim.Second / 25)
	cam.Stop()
	site.Sim.Run()

	if disp.Stats.Tiles == 0 {
		t.Fatal("no tiles rendered")
	}
	// Pixel check at the window offset.
	src := media.SyntheticFrame(64, 48, cam.Stats.LastFrame)
	for y := 0; y < 48; y += 7 {
		for x := 0; x < 64; x += 7 {
			got := disp.Screen().Pix[(16+y)*640+(16+x)]
			if got != src.Pix[y*64+x] {
				t.Fatalf("pixel (%d,%d) = %d, want %d", x, y, got, src.Pix[y*64+x])
			}
		}
	}
	// Zero-copy claim: neither workstation kernel did any work.
	for _, w := range []*core.Workstation{wa, wb} {
		for _, d := range w.Kernel.Domains() {
			if d.Stats.Used != 0 {
				t.Fatalf("domain %v consumed %v CPU on the video path", d, d.Stats.Used)
			}
		}
	}
}

// TestQuickTour is examples/quickstart as a test: one workstation, a
// camera plumbed to a display, a fifth of a second of video.
func TestQuickTour(t *testing.T) {
	site := core.NewSite(core.DefaultSiteConfig())
	ws := site.NewWorkstation("desk")
	cam, camEP := ws.AttachCamera(devices.CameraConfig{W: 64, H: 48, FPS: 25})
	disp, dispEP := ws.AttachDisplay(640, 480)
	if win := site.PlumbVideo(cam, camEP, disp, dispEP, 32, 32); win == nil {
		t.Fatal("no window created")
	}
	cam.Start()
	site.Sim.RunFor(sim.Second / 5)
	cam.Stop()
	site.Sim.Run()
	if disp.Stats.Tiles == 0 {
		t.Fatal("nothing rendered")
	}
	if cam.Stats.Frames < 4 {
		t.Fatalf("frames = %d", cam.Stats.Frames)
	}
}

func TestRecordAndReplayStream(t *testing.T) {
	// Camera -> file server (data + control) -> index -> replay.
	site := core.NewSite(core.DefaultSiteConfig())
	wa := site.NewWorkstation("A")
	ss := site.NewStorageServer("store", 64<<10, 128)

	cam, camEP := wa.AttachCamera(devices.CameraConfig{W: 64, H: 48, FPS: 25, Compress: true})
	cfg := cam.Config()
	rec, err := ss.RecordStream("/streams/take1", camEP, cfg.VCI, cfg.CtrlVCI)
	if err != nil {
		t.Fatal(err)
	}
	cam.Start()
	site.Sim.RunUntil(10 * sim.Second / 25) // ten frames
	cam.Stop()
	site.Sim.Run()

	if rec.Frames() < 9 {
		t.Fatalf("indexed %d frames, want ~10", rec.Frames())
	}
	if ss.Ingest.Errors != 0 {
		t.Fatalf("ingest errors: %d", ss.Ingest.Errors)
	}
	if err := rec.Finalize(); err != nil {
		t.Fatal(err)
	}
	var player *fileserver.Player
	ss.Server.OpenStream("/streams/take1", func(p *fileserver.Player, e error) {
		player, err = p, e
	})
	site.Sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Replay frame 3 and decode it back to tiles.
	var payload []byte
	player.ReadFrame(3, func(b []byte, e error) { payload, err = b, e })
	site.Sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) == 0 {
		t.Fatal("empty frame payload")
	}
	// A frame payload is a sequence of encoded tile groups (one per
	// band). Decode the first group and verify geometry.
	g, derr := media.DecodeGroup(payload[:groupLen(payload)])
	if derr != nil {
		t.Fatalf("stored group undecodable: %v", derr)
	}
	if len(g.Tiles) != 64/8 {
		t.Fatalf("band has %d tiles, want 8", len(g.Tiles))
	}
}

// groupLen finds the encoded length of the first tile group in a frame
// payload by re-parsing lengths (groups are self-delimiting via counts).
func groupLen(b []byte) int {
	// header: magic flags quality count(2) frameID(4) ts(8) = 17
	if len(b) < 17 {
		return len(b)
	}
	count := int(b[3])<<8 | int(b[4])
	p := 17
	for i := 0; i < count && p+6 <= len(b); i++ {
		n := int(b[p+4])<<8 | int(b[p+5])
		p += 6 + n
	}
	if p > len(b) {
		return len(b)
	}
	return p
}

func TestUnixControlPlaneRPC(t *testing.T) {
	// A Unix node drives a workstation-side object over RPC: the §2.3
	// split of control (Unix) and real-time work (Nemesis).
	site := core.NewSite(core.DefaultSiteConfig())
	ws := site.NewWorkstation("ws")
	ux := site.NewUnixNode("unix")
	vci := site.ConnectRPC(ws, ws.Net, ux, ux.Net)

	// Workstation exports a control interface.
	calls := 0
	iface := invoke.NewInterface("control")
	iface.Define("start", func(arg []byte) ([]byte, error) {
		calls++
		return []byte("ok:" + string(arg)), nil
	})
	rpc.NewServer(ws.Transport, vci, iface)

	client := rpc.NewClient(ux.Transport, vci)
	var res []byte
	var err error
	client.Go("start", []byte("camera0"), func(b []byte, e error) { res, err = b, e })
	site.Sim.Run()
	if err != nil || string(res) != "ok:camera0" {
		t.Fatalf("rpc = %q, %v", res, err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestMulticastPreviewPlusRecord(t *testing.T) {
	// One camera feeds both a preview window and the file server —
	// the TV-director pattern using point-to-multipoint circuits.
	site := core.NewSite(core.DefaultSiteConfig())
	wa := site.NewWorkstation("A")
	ss := site.NewStorageServer("store", 64<<10, 128)

	cam, camEP := wa.AttachCamera(devices.CameraConfig{W: 64, H: 48, FPS: 25})
	disp, dispEP := wa.AttachDisplay(640, 480)
	cfg := cam.Config()
	site.PlumbVideo(cam, camEP, disp, dispEP, 0, 0)
	rec, err := ss.RecordStream("/rec/preview", camEP, cfg.VCI, cfg.CtrlVCI)
	if err != nil {
		t.Fatal(err)
	}
	cam.Start()
	site.Sim.RunUntil(5 * sim.Second / 25)
	cam.Stop()
	site.Sim.Run()
	if disp.Stats.Tiles == 0 {
		t.Fatal("preview got no tiles")
	}
	if rec.Frames() < 4 {
		t.Fatalf("recording indexed %d frames", rec.Frames())
	}
}

func TestWorkstationKernelSchedulesApps(t *testing.T) {
	site := core.NewSite(core.DefaultSiteConfig())
	ws := site.NewWorkstation("ws")
	// Alone on the machine, a {2ms, 10ms} domain finishes 6ms of work
	// in ~6ms: beyond its guarantee it "exploits unguaranteed resources
	// which become available fortuitously" (§3.3) via slack time.
	var aloneDone sim.Time
	ws.Kernel.Spawn("app", nemesis.SchedParams{Slice: 2 * sim.Millisecond, Period: 10 * sim.Millisecond},
		func(c *nemesis.Ctx) {
			c.Consume(6 * sim.Millisecond)
			aloneDone = c.Now()
		})
	site.Sim.RunUntil(sim.Second)
	ws.Kernel.Shutdown()
	if aloneDone > 7*sim.Millisecond {
		t.Fatalf("idle machine: app finished at %v, want ~6ms via slack", aloneDone)
	}

	// Against a guaranteed competitor taking 80%, the same app gets its
	// 2ms per period plus ~nothing: it needs three periods.
	site2 := core.NewSite(core.DefaultSiteConfig())
	ws2 := site2.NewWorkstation("ws2")
	var done sim.Time
	ws2.Kernel.Spawn("app", nemesis.SchedParams{Slice: 2 * sim.Millisecond, Period: 10 * sim.Millisecond},
		func(c *nemesis.Ctx) {
			c.Consume(6 * sim.Millisecond)
			done = c.Now()
		})
	ws2.Kernel.Spawn("compete", nemesis.SchedParams{Slice: 8 * sim.Millisecond, Period: 10 * sim.Millisecond},
		func(c *nemesis.Ctx) {
			for {
				c.Consume(sim.Millisecond)
			}
		})
	site2.Sim.RunUntil(sim.Second)
	ws2.Kernel.Shutdown()
	if done < 20*sim.Millisecond || done > 30*sim.Millisecond {
		t.Fatalf("loaded machine: app finished at %v, want in (20ms,30ms]", done)
	}
}

func TestEndpointSetSinkReplacesDelivery(t *testing.T) {
	// SetSink repoints the one link Attach built: after the swap the
	// new handler consumes everything at the port and the demux sees
	// nothing — the AttachDisplay pattern, without a dangling link.
	site := core.NewSite(core.DefaultSiteConfig())
	src := site.Attach("src")
	dst := site.Attach("dst")

	var direct int
	demuxed := 0
	dst.Demux.Register(7, fabric.HandlerFunc(func(atm.Cell) { demuxed++ }))
	dst.SetSink(fabric.HandlerFunc(func(atm.Cell) { direct++ }))

	site.Patch(src, 7, dst)
	src.ToSwitch.Send(atm.Cell{VCI: 7})
	site.Sim.Run()

	if direct != 1 || demuxed != 0 {
		t.Fatalf("direct=%d demuxed=%d, want 1/0", direct, demuxed)
	}
}

func TestAudioPathAcrossSite(t *testing.T) {
	site := core.NewSite(core.DefaultSiteConfig())
	wa := site.NewWorkstation("A")
	wb := site.NewWorkstation("B")
	src, srcEP := wa.AttachAudioSource(devices.AudioSourceConfig{Rate: 8000})
	sink, sinkEP := wb.AttachAudioSink(src.Config().VCI, 5*sim.Millisecond)
	site.Patch(srcEP, src.Config().VCI, sinkEP)
	src.Start()
	site.Sim.RunUntil(sim.Second / 4)
	src.Stop()
	site.Sim.Run()
	if sink.Stats.Received < 100 {
		t.Fatalf("received %d blocks", sink.Stats.Received)
	}
	if sink.Stats.Late != 0 || sink.Stats.Gaps != 0 {
		t.Fatalf("late=%d gaps=%d on idle fabric", sink.Stats.Late, sink.Stats.Gaps)
	}
}
