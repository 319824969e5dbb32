// Package pegasus is a from-scratch reproduction of "Operating-System
// Support for Distributed Multimedia" (Mullender, Leslie & McAuley,
// 1994 Summer USENIX Conference): the Pegasus architecture with the
// Nemesis microkernel, ATM multimedia devices, Plan-9-inspired naming,
// maillon object invocation, and the log-structured Pegasus File Server.
//
// Everything timing-sensitive runs on a deterministic discrete-event
// simulator in virtual time. The implementation lives under internal/;
// this package holds only the benchmarks (bench_test.go) and a
// camera-to-display determinism test (pegasus_test.go). A first
// program builds a site with internal/core:
//
//	site := core.NewSite(core.DefaultSiteConfig())
//	ws := site.NewWorkstation("desk")
//	cam, camEP := ws.AttachCamera(devices.CameraConfig{W: 640, H: 480, FPS: 25})
//	disp, dispEP := ws.AttachDisplay(1024, 768)
//	site.PlumbVideo(cam, camEP, disp, dispEP, 32, 32)
//	cam.Start()
//	site.Sim.RunFor(sim.Second) // one second of virtual time
//
// examples/quickstart is that program, runnable. The examples/ directory
// holds six scenarios (quickstart, videophone, qossession, tvdirector,
// vodserver, jukebox), cmd/experiments regenerates every evaluation
// artefact of the paper, and cmd/pegload runs the site-scale load
// generator.
package pegasus
