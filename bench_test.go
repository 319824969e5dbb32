package pegasus

// One benchmark per evaluation artefact of the paper (E1–E18; see
// ARCHITECTURE.md's "Paper section → package map"), each wrapping the
// corresponding harness in internal/experiments, plus micro-benchmarks
// for the substrates.
// Virtual-time results (the paper-facing numbers) are attached via
// b.ReportMetric; wall-clock ns/op measures the simulator itself.

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/fileserver"
	"repro/internal/invoke"
	"repro/internal/lfs"
	"repro/internal/media"
	"repro/internal/metro"
	"repro/internal/names"
	"repro/internal/nemesis"
	"repro/internal/raid"
	"repro/internal/rpc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tertiary"
	"repro/internal/vodsite"
)

func BenchmarkE1TileVsFrameLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E1TileLatency()
	}
}

func BenchmarkE2DisplayMux(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2DisplayMux()
	}
}

func BenchmarkE3ZeroCopyPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3ZeroCopy()
	}
}

func BenchmarkE4Scheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E4Scheduling()
	}
}

func BenchmarkE5Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5Events()
	}
}

func BenchmarkE6AddressSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E6AddressSpace()
	}
}

func BenchmarkE7Invocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E7Invocation()
	}
}

func BenchmarkE8Naming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8Naming()
	}
}

func BenchmarkE9SegmentIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E9SegmentIO()
	}
}

func BenchmarkE10Cleaner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E10Cleaner()
	}
}

func BenchmarkE11WriteBuffering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11WriteBuffering()
	}
}

func BenchmarkE12FaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E12FaultTolerance()
	}
}

func BenchmarkE13SyncAndIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E13SyncAndIndex()
	}
}

func BenchmarkE14Relocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E14Relocation()
	}
}

func BenchmarkE15CachePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E15CachePolicy()
	}
}

func BenchmarkE16PowerFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E16PowerFailure()
	}
}

func BenchmarkE17TertiaryStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E17TertiaryStorage()
	}
}

func BenchmarkE18Admission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E18Admission()
	}
}

// --- substrate micro-benchmarks -------------------------------------

// BenchmarkSimEvents measures the discrete-event engine itself.
func BenchmarkSimEvents(b *testing.B) {
	s := sim.New()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			s.After(1, fire)
		}
	}
	b.ResetTimer()
	s.After(1, fire)
	s.Run()
}

// BenchmarkSwitchForwarding measures cell switching (wall clock per
// simulated cell hop).
func BenchmarkSwitchForwarding(b *testing.B) {
	s := sim.New()
	sw := fabric.NewSwitch(s, "sw", 2, sim.Microsecond)
	sink := fabric.HandlerFunc(func(atm.Cell) {})
	sw.AttachOutput(1, fabric.NewLink(s, fabric.Rate100M, 0, 0, sink))
	in := fabric.NewLink(s, fabric.Rate100M, 0, 0, sw.In(0))
	sw.Route(0, 1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Send(atm.Cell{VCI: 1})
		if i%1024 == 0 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkFrameSend measures one stream frame end to end on the batched
// fast path, the way the load generator's sources send it: a 16-byte
// stamped head by value over a borrowed payload, link -> switch (VCI
// rewrite) -> link -> demux -> burst-aware sink, one frame period per
// iteration. No cell is materialised and nothing is allocated, for the
// 21-cell frames of the mesh runs and the 101-cell ones of the metro
// runs alike (internal/loadgen's TestFrameSendAllocatesNothing pins the
// same through the real source and sink).
func BenchmarkFrameSend(b *testing.B) {
	for _, frameBytes := range []int{960, 4800} {
		b.Run(fmt.Sprintf("cells=%d", atm.CellsFor(frameBytes)), func(b *testing.B) {
			s := sim.New()
			sw := fabric.NewSwitch(s, "sw", 2, sim.Microsecond)
			dm := devices.NewDemux()
			dm.Register(2, nullSink{})
			sw.AttachOutput(1, fabric.NewLink(s, fabric.Rate100M, sim.Microsecond, 0, dm))
			in := fabric.NewLink(s, fabric.Rate100M, sim.Microsecond, 0, sw.In(0))
			sw.Route(0, 1, 1, 2)
			payload := make([]byte, frameBytes)
			var head [16]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(head[:], uint64(s.Now()))
				t, err := atm.NewTrain(1, devices.UUData, head[:], payload[len(head):])
				if err != nil {
					b.Fatal(err)
				}
				in.SendTrain(t)
				s.RunFor(sim.Millisecond)
			}
			b.StopTimer()
			if got, want := sw.Stats().Switched, int64(b.N*atm.CellsFor(frameBytes)); got != want || dm.Unrouted != 0 {
				b.Fatalf("switched %d cells (%d unrouted at the sink), want %d", got, dm.Unrouted, want)
			}
		})
	}
}

// BenchmarkCodecFrame measures the tile codec over a full 640x480 frame.
func BenchmarkCodecFrame(b *testing.B) {
	f := media.SyntheticFrame(640, 480, 1)
	b.SetBytes(int64(len(f.Pix)))
	for i := 0; i < b.N; i++ {
		media.CompressFrame(f, 2)
	}
}

// BenchmarkLFSWrite measures core-layer log writes, reporting the
// virtual throughput the simulated array achieved.
func BenchmarkLFSWrite(b *testing.B) {
	const segSize = 1 << 20
	s := sim.New()
	arr := raid.New(s, disk.DefaultParams(), segSize, 512)
	fs := lfs.New(s, arr, lfs.DefaultConfig(segSize))
	pn := fs.Create(false)
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		if fs.FreeSegments() < 4 {
			b.StopTimer()
			fs.Delete(pn)
			fs.Sync(func(error) {})
			s.Run()
			fs.CleanPegasus(func(lfs.CleanStats, error) {})
			s.Run()
			pn = fs.Create(false)
			off = 0
			b.StartTimer()
		}
		if err := fs.Write(pn, off, buf); err != nil {
			b.Fatal(err)
		}
		off += int64(len(buf))
	}
	fs.Sync(func(error) {})
	s.Run()
	if sec := s.Now().Seconds(); sec > 0 {
		b.ReportMetric(float64(fs.Stats.BytesAppended)/sec/1e6, "virtualMB/s")
	}
}

// BenchmarkSegmentSeal measures what placing and sealing one media
// segment costs the host at three fills of a 256 KiB segment: one Write
// of that many bytes, Sync, and the drain of the full-stripe write. The
// simulated cost is the same five chunk transfers at every fill; host
// time, B/op and allocs/op are what should follow the fill.
func BenchmarkSegmentSeal(b *testing.B) {
	const segSize = 256 << 10
	for _, pct := range []int{3, 75, 100} {
		b.Run(fmt.Sprintf("fill=%d%%", pct), func(b *testing.B) {
			s := sim.New()
			newFS := func() *lfs.FS {
				return lfs.New(s, raid.New(s, disk.DefaultParams(), segSize, 64), lfs.DefaultConfig(segSize))
			}
			fs := newFS()
			// 100%: all the room one summary entry and the trailer leave.
			data := make([]byte, min(segSize*pct/100, segSize-46))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fs.FreeSegments() == 0 {
					b.StopTimer()
					fs = newFS()
					b.StartTimer()
				}
				if err := fs.Write(fs.Create(true), 0, data); err != nil {
					b.Fatal(err)
				}
				fs.Sync(func(error) {})
				s.Run()
			}
		})
	}
}

// BenchmarkCleanerPegasusVsSprite reports cleaner CPU cost at two file
// system sizes (the E10 ablation in bench form).
func BenchmarkCleanerPegasusVsSprite(b *testing.B) {
	const segSize = 64 << 10
	for _, cfg := range []struct {
		name    string
		nseg    int64
		pegasus bool
	}{
		{"pegasus-64seg", 64, true},
		{"pegasus-1024seg", 1024, true},
		{"sprite-64seg", 64, false},
		{"sprite-1024seg", 1024, false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cpu sim.Duration
			// One source for every file and iteration: the store only reads
			// what it is handed, and a fresh buffer per write would be counted
			// here (Write keeps its argument, so it is heap-allocated).
			data := make([]byte, segSize-1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := sim.New()
				arr := raid.New(s, disk.DefaultParams(), segSize, cfg.nseg)
				fs := lfs.New(s, arr, lfs.DefaultConfig(segSize))
				var pns []lfs.Pnode
				for j := 0; j < 8; j++ {
					pn := fs.Create(false)
					pns = append(pns, pn)
					fs.Write(pn, 0, data)
				}
				fs.Sync(func(error) {})
				s.Run()
				for j := 0; j < 4; j++ {
					fs.Delete(pns[j])
				}
				fs.Sync(func(error) {})
				s.Run()
				var cs lfs.CleanStats
				if cfg.pegasus {
					fs.CleanPegasus(func(c lfs.CleanStats, err error) { cs = c })
				} else {
					fs.CleanSprite(8, func(c lfs.CleanStats, err error) { cs = c })
				}
				s.Run()
				cpu = cs.CPUTime
			}
			b.ReportMetric(float64(cpu), "virtual-cpu-ns")
		})
	}
}

// BenchmarkProtectedCall measures the kernel's cross-domain call path
// (wall clock per simulated call; virtual cost reported as a metric).
func BenchmarkProtectedCall(b *testing.B) {
	s := sim.New()
	k := nemesis.NewKernel(s, nemesis.Config{SwitchCost: 10 * sim.Microsecond, SingleAddressSpace: true}, sched.NewRoundRobin())
	iface := invoke.NewInterface("echo")
	iface.Define("op", func(arg []byte) ([]byte, error) { return arg, nil })
	srv := invoke.NewProtectedServer(k, "echo", nemesis.SchedParams{BestEffort: true}, iface)
	var elapsed sim.Duration
	k.Spawn("client", nemesis.SchedParams{BestEffort: true}, func(c *nemesis.Ctx) {
		bnd := srv.Connect(c.Domain())
		caller := &invoke.DomainCaller{Ctx: c}
		t0 := c.Now()
		for i := 0; i < b.N; i++ {
			if _, err := bnd.Invoke(caller, "op", []byte{1}); err != nil {
				panic(err)
			}
		}
		elapsed = c.Now() - t0
	})
	b.ResetTimer()
	s.Run()
	k.Shutdown()
	b.ReportMetric(float64(elapsed)/float64(b.N), "virtual-ns/call")
}

// BenchmarkRPCRoundTrip measures the MSNA/ANSA stack over a simulated
// 100 Mb/s link, reporting the virtual round-trip time.
func BenchmarkRPCRoundTrip(b *testing.B) {
	s := sim.New()
	ta := rpc.NewTransport(s)
	tb := rpc.NewTransport(s)
	ta.SetOutput(fabric.NewLink(s, fabric.Rate100M, 5*sim.Microsecond, 0, tb))
	tb.SetOutput(fabric.NewLink(s, fabric.Rate100M, 5*sim.Microsecond, 0, ta))
	iface := invoke.NewInterface("echo")
	iface.Define("op", func(arg []byte) ([]byte, error) { return arg, nil })
	rpc.NewServer(tb, 100, iface)
	client := rpc.NewClient(ta, 100)
	arg := make([]byte, 64)
	start := s.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		client.Go("op", arg, func([]byte, error) { done = true })
		s.Run()
		if !done {
			b.Fatal("call did not complete")
		}
	}
	b.ReportMetric(float64(s.Now()-start)/float64(b.N), "virtual-ns/rtt")
}

// BenchmarkTapeRecall measures a cold recall through the tape-library
// model (wall clock per simulated recall; virtual latency as a metric).
// One item per cartridge, recalled alternately, so every recall pays a
// robot exchange plus the wind and stream.
func BenchmarkTapeRecall(b *testing.B) {
	s := sim.New()
	p := tertiary.DefaultParams()
	p.Tapes = 2
	p.TapeCapacity = 1 << 20 // one 1 MB item fills a cartridge
	lib := tertiary.New(s, p)
	data := make([]byte, 1<<20)
	lib.Store("a", data, func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	})
	lib.Store("b", data, func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	})
	s.Run()
	var total sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := "a"
		if i%2 == 1 {
			id = "b"
		}
		t0 := s.Now()
		ok := false
		lib.Recall(id, func(bs []byte, err error) { ok = err == nil })
		s.Run()
		if !ok {
			b.Fatal("recall failed")
		}
		total += s.Now() - t0
	}
	b.ReportMetric(float64(total)/float64(b.N), "virtual-ns/recall")
}

// BenchmarkLoaderWarmReload measures the relocation cache's hit path
// (wall clock; virtual reload cost as a metric).
func BenchmarkLoaderWarmReload(b *testing.B) {
	l := nemesis.NewLoader(nemesis.LoaderConfig{
		MapCost:   200 * sim.Microsecond,
		RelocCost: sim.Microsecond,
	})
	im := nemesis.Image{Name: "editor", Relocs: 30000}
	if _, err := l.Load(im); err != nil {
		b.Fatal(err)
	}
	l.Unload("editor")
	var cost sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := l.Load(im)
		if err != nil {
			b.Fatal(err)
		}
		cost = res.Cost
		l.Unload("editor")
	}
	b.ReportMetric(float64(cost), "virtual-ns/reload")
}

// BenchmarkDirSemanticCache measures cached directory lookups (wall
// clock per lookup; server trips per 1000 lookups as a metric).
func BenchmarkDirSemanticCache(b *testing.B) {
	s := sim.New()
	ds := fileserver.NewDirServer(s)
	if err := ds.MkDir("/d"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		ds.Insert("/d", fmt.Sprintf("f%03d", i), lfs.Pnode(100+i))
	}
	dc := fileserver.NewDirClient(s, ds, fileserver.SemanticDirCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.Lookup("/d", fmt.Sprintf("f%03d", i%128), func(lfs.Pnode, error) {})
		if i%1024 == 0 {
			s.Run()
		}
	}
	s.Run()
	if b.N > 0 {
		b.ReportMetric(float64(dc.Stats.ServerTrips)*1000/float64(b.N), "trips/1k-lookups")
	}
}

// BenchmarkNameResolve measures local name-space resolution (real
// wall-clock cost of the data structure itself).
func BenchmarkNameResolve(b *testing.B) {
	ns := names.New()
	iface := invoke.NewInterface("x")
	h := invoke.LocalHandle(iface, 0)
	if err := ns.Bind("/svc/storage/volumes/v0", h); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ns.Resolve("/svc/storage/volumes/v0"); err != nil {
			b.Fatal(err)
		}
	}
}

// sessionBenchSite builds a one-server site with a CM-served title for
// the session-path benchmarks; cacheBytes > 0 enables the RAM buffer
// tier on the node.
func sessionBenchSite(b *testing.B, cacheBytes int64) (*core.Site, *core.StorageServer, []int) {
	return cmBenchSite(b, 4800, cacheBytes)
}

// cmBenchSite is sessionBenchSite with the title's frame size a
// parameter: the title "t" is two 500 ms rounds of 100 Hz frames, stored
// from the start of its own 256 KiB segment (64 KiB per-disk chunks,
// chunk 0 on disk 0).
func cmBenchSite(b *testing.B, frameBytes, cacheBytes int64) (*core.Site, *core.StorageServer, []int) {
	const (
		viewers = 8
		frameHz = 100
		round   = 500 * sim.Millisecond
	)
	titleBytes := 2 * int64(frameHz) * int64(round) / int64(sim.Second) * frameBytes
	siteCfg := core.DefaultSiteConfig()
	siteCfg.Ports = viewers + 1
	site := core.NewSite(siteCfg)
	ss := site.NewStorageServer("vod", 256<<10, 64)
	ports := make([]int, viewers)
	for i := range ports {
		ports[i] = site.Attach("v").Port
	}
	if err := ss.Server.Create("t", true); err != nil {
		b.Fatal(err)
	}
	if err := ss.Server.Write("t", 0, make([]byte, titleBytes)); err != nil {
		b.Fatal(err)
	}
	ss.Server.FS().Sync(func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	})
	site.Sim.Run()
	ss.EnableCM(fileserver.CMConfig{Round: round, CacheBytes: cacheBytes})
	return site, ss, ports
}

func sessionBenchSpec(ss *core.StorageServer, port int) core.SessionSpec {
	return core.SessionSpec{
		Class:      core.Guaranteed,
		InPort:     ss.Net.Port,
		OutPorts:   []int{port},
		PeakRate:   5_300_000,
		CM:         ss.CM,
		Title:      "t",
		FrameBytes: 4800,
		FrameHz:    100,
	}
}

// BenchmarkSessionOpen measures the end-to-end session admission hot
// path: one OpenSession (link + uplink + disk conjunction) and its
// Close, on a one-server site.
func BenchmarkSessionOpen(b *testing.B) {
	site, ss, ports := sessionBenchSite(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := site.OpenSession(sessionBenchSpec(ss, ports[i%len(ports)]))
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
		if i%256 == 255 {
			// Drain the primed read-ahead I/O outside the timer (the CM
			// ticker never stops, so a bounded advance, not Run).
			b.StopTimer()
			site.Sim.RunFor(20 * sim.Second)
			b.StartTimer()
		}
	}
}

// BenchmarkCMWindowFetch measures one round of one admitted stream end to
// end through the storage stack: the round tick, the window read (CM
// service -> fileserver -> lfs -> raid -> disk) and its playout. B/op is
// the point: a window inside one healthy chunk is a view of the disk
// page all the way up to the playout buffer (no payload-sized
// allocation); one that crosses chunks, or whose disk is down, costs
// exactly the owned bytes the array must assemble.
func BenchmarkCMWindowFetch(b *testing.B) {
	const (
		round          = 500 * sim.Millisecond
		framesPerRound = 50
	)
	for _, bc := range []struct {
		name       string
		frameBytes int // 50 per window: 640 -> 32000 B in chunk 0, 1600 -> 80000 B over two
		failDisk   bool
	}{
		{"single-chunk", 640, false},
		{"chunk-crossing", 1600, false},
		{"degraded", 640, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			site, ss, _ := cmBenchSite(b, int64(bc.frameBytes), 0)
			if bc.failDisk {
				ss.Server.FS().Array().FailDisk(0)
			}
			cm, err := ss.CM.Admit("t", bc.frameBytes, 100)
			if err != nil {
				b.Fatal(err)
			}
			site.Sim.RunFor(2 * round) // primed, started, second window buffered
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < framesPerRound; j++ {
					cm.NextFrame()
				}
				site.Sim.RunFor(round)
			}
			b.StopTimer()
			if st := ss.CM.Stats; st.Underruns != 0 || st.ReadErrors != 0 || st.GuaranteedReads < int64(b.N) {
				b.Fatalf("underruns %d, read errors %d, %d guaranteed reads in %d rounds",
					st.Underruns, st.ReadErrors, st.GuaranteedReads, b.N)
			}
		})
	}
}

// BenchmarkSessionOpenWithCPU measures the full four-leg admission hot
// path: one OpenSession charging link + uplink + disk + CPU (spawning
// and reserving the stream's protocol domain) and its Close (killing
// the domain), on a one-server site with CPU admission enabled.
func BenchmarkSessionOpenWithCPU(b *testing.B) {
	site, ss, ports := sessionBenchSite(b, 0)
	ss.EnableCPU(core.CPUConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := sessionBenchSpec(ss, ports[i%len(ports)])
		spec.CPU = ss.CPU
		s, err := site.OpenSession(spec)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
		if i%256 == 255 {
			// Drain the primed read-ahead I/O outside the timer (the CM
			// ticker never stops, so a bounded advance, not Run).
			b.StopTimer()
			site.Sim.RunFor(20 * sim.Second)
			b.StartTimer()
		}
	}
}

// BenchmarkQoSRebalance measures the QoS manager's allocation update
// with a population of reserved stream contracts and elastic requests
// registered: one Request (which re-runs the proportional rebalance
// over every entry) per iteration.
func BenchmarkQoSRebalance(b *testing.B) {
	s := sim.New()
	edf := sched.NewEDFShares()
	k := nemesis.NewKernel(s, nemesis.Config{SingleAddressSpace: true}, edf)
	m := sched.NewQoSManager(s, edf)
	defer k.Shutdown()
	const doms = 64
	sleep := func(c *nemesis.Ctx) {
		for {
			c.Sleep(sim.Second)
		}
	}
	var ds [doms]*nemesis.Domain
	for i := range ds {
		ds[i] = k.Spawn("d", nemesis.SchedParams{Slice: 1, Period: 40 * sim.Millisecond}, sleep)
		if i%2 == 0 {
			if err := m.Reserve(ds[i], sim.Duration(i/4+1)*sim.Microsecond, 10*sim.Millisecond); err != nil {
				b.Fatal(err)
			}
		} else {
			m.Request(ds[i], sim.Duration(i+1)*sim.Millisecond, 40*sim.Millisecond)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := ds[(i*2+1)%doms]
		m.Request(d, sim.Duration(i%24+1)*sim.Millisecond, 40*sim.Millisecond)
	}
}

// BenchmarkSessionRenegotiate measures in-place renegotiation: one
// shrink to half rate and one grow back per iteration, each adjusting
// the link and disk budgets without teardown.
func BenchmarkSessionRenegotiate(b *testing.B) {
	site, ss, ports := sessionBenchSite(b, 0)
	s, err := site.OpenSession(sessionBenchSpec(ss, ports[0]))
	if err != nil {
		b.Fatal(err)
	}
	full := s.FullRate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Renegotiate(full / 2); err != nil {
			b.Fatal(err)
		}
		if err := s.Renegotiate(full); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSiteAdmission measures the multi-server replica-selecting
// admission hot path: one site-level Admit (least-committed replica
// ordering plus the link∧disk conjunction on the chosen node) and its
// Release, over an 8-title catalog with two replicas of each title on a
// 4-node site, and with sixteen on a 16-node site (cluster-vod's shape:
// every request probes and ranks sixteen candidates).
func BenchmarkSiteAdmission(b *testing.B) {
	const (
		viewers, titles     = 16, 8
		frameBytes, frameHz = 4800, 100
		round               = 500 * sim.Millisecond
	)
	titleBytes := 2 * int64(frameHz) * int64(round) / int64(sim.Second) * frameBytes
	for _, bc := range []struct{ nodes, replicas int }{{4, 2}, {16, 16}} {
		b.Run(fmt.Sprintf("replicas=%d", bc.replicas), func(b *testing.B) {
			siteCfg := core.DefaultSiteConfig()
			siteCfg.Ports = bc.nodes + viewers
			site := core.NewSite(siteCfg)
			ctrl := vodsite.New(site, vodsite.Config{
				PeakRate:            5_300_000,
				BaseReplicas:        bc.replicas,
				ReplicationDisabled: true,
			})
			for i := 0; i < bc.nodes; i++ {
				ctrl.AddNode(site.NewStorageServer("n", 256<<10, int64(titles*6+16)))
			}
			ports := make([]int, viewers)
			for i := range ports {
				ports[i] = site.Attach("v").Port
			}
			titleNames := make([]string, titles)
			for i := range titleNames {
				titleNames[i] = fmt.Sprintf("t%d", i)
				ctrl.AddTitle(titleNames[i], titleBytes, frameBytes, frameHz)
			}
			if err := ctrl.Place(); err != nil {
				b.Fatal(err)
			}
			site.Sim.Run()
			ctrl.Start(fileserver.CMConfig{Round: round})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := ctrl.Admit(titleNames[i%titles], ports[i%viewers])
				if err != nil {
					b.Fatal(err)
				}
				st.Release()
				if i%256 == 255 {
					// Drain the primed read-ahead I/O outside the timer (the CM
					// tickers never stop, so a bounded advance, not Run).
					b.StopTimer()
					site.Sim.RunFor(20 * sim.Second)
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkPlacement measures initial placement of one 192 000-byte title
// (metro-flash's size) on a site of as many nodes as replicas:
// vodsite.Place and the drain of its segment writes. B/op per replica
// beyond the first is what a replica costs the host.
func BenchmarkPlacement(b *testing.B) {
	for _, replicas := range []int{1, 16} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				siteCfg := core.DefaultSiteConfig()
				siteCfg.Ports = replicas + 1
				site := core.NewSite(siteCfg)
				ctrl := vodsite.New(site, vodsite.Config{PeakRate: 5_300_000, BaseReplicas: replicas})
				for n := 0; n < replicas; n++ {
					ctrl.AddNode(site.NewStorageServer("n", 256<<10, 16))
				}
				ctrl.AddTitle("t", 192_000, 4800, 100)
				b.StartTimer()
				if err := ctrl.Place(); err != nil {
					b.Fatal(err)
				}
				site.Sim.Run()
			}
		})
	}
}

// BenchmarkSiteProbe measures the no-hold admission probe: one
// Site.Probe of the link ∧ uplink ∧ disk ∧ cache conjunction per
// iteration on a one-server site with an open session committing every
// leg — the query replica selection and retry policies issue per
// candidate node.
func BenchmarkSiteProbe(b *testing.B) {
	site, ss, ports := sessionBenchSite(b, 16<<20)
	if _, err := site.OpenSession(sessionBenchSpec(ss, ports[0])); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := site.Probe(sessionBenchSpec(ss, ports[i%len(ports)]))
		if !r.OK {
			b.Fatal("probe refused with budget to spare")
		}
	}
}

// BenchmarkIntervalCacheHit measures the RAM-tier streaming hot path:
// one leader plus seven followers riding its wake, every follower
// window served out of memory. One iteration consumes a round of
// frames from every stream and advances the site one scheduler round
// (the follower refills are pure cache hits).
func BenchmarkIntervalCacheHit(b *testing.B) {
	const (
		round          = 500 * sim.Millisecond
		framesPerRound = 50
	)
	site, ss, ports := sessionBenchSite(b, 64<<20)
	lead, err := site.OpenSession(sessionBenchSpec(ss, ports[0]))
	if err != nil {
		b.Fatal(err)
	}
	handles := []*fileserver.CMStream{lead.CM()}
	// Let the leader loop the two-round title once: the whole wake is
	// then resident and every later open is cache-served.
	site.Sim.RunFor(3 * round)
	for _, p := range ports[1:] {
		s, err := site.OpenSession(sessionBenchSpec(ss, p))
		if err != nil {
			b.Fatal(err)
		}
		if !s.CacheServed() {
			b.Fatal("follower not cache-served")
		}
		handles = append(handles, s.CM())
	}
	site.Sim.RunFor(round) // followers cross a round boundary and start
	hits0 := ss.CM.Stats.CacheHits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range handles {
			for j := 0; j < framesPerRound; j++ {
				h.NextFrame()
			}
		}
		site.Sim.RunFor(round)
	}
	b.StopTimer()
	if ss.CM.Stats.CacheHits == hits0 {
		b.Fatal("no cache hits during the measured rounds")
	}
	if ss.CM.Stats.Underruns != 0 {
		b.Fatalf("%d underruns during the measured rounds", ss.CM.Stats.Underruns)
	}
}

// benchMetro builds a three-site federation with one serving node per
// site and a viewer port on site 0; the catalog's titles are held on
// sites 1 and 2 only, so every home-site admission question is a
// cross-site one.
func benchMetro(b *testing.B, titles int) (*metro.Controller, int) {
	const (
		frameBytes, frameHz = 4800, 100
		round               = 500 * sim.Millisecond
	)
	titleBytes := 2 * int64(frameHz) * int64(round) / int64(sim.Second) * frameBytes
	m := metro.New(metro.Config{
		Sites: 3,
		Vod:   vodsite.Config{PeakRate: 5_300_000, ReplicationDisabled: true},
	})
	for _, mb := range m.Members() {
		mb.Ctrl.AddNode(mb.Site.NewStorageServer("vod", 256<<10, int64(titles*6+16)))
	}
	viewer := m.Member(0).Site.Attach("v")
	for i := 0; i < titles; i++ {
		m.AddTitle(fmt.Sprintf("t%d", i), titleBytes, frameBytes, frameHz, []int{1, 2})
	}
	if err := m.Place(); err != nil {
		b.Fatal(err)
	}
	m.Clock().Run()
	m.Start(fileserver.CMConfig{Round: round})
	return m, viewer.Port
}

// BenchmarkMetroSpillProbe measures the federated admission query hot
// path: one metro Probe per iteration for a title the home site does
// not hold — the replicated-catalog candidate walk, the remote site's
// link ∧ uplink ∧ disk probe, the home viewer-downlink merge and the
// explicit trunk-headroom leg.
func BenchmarkMetroSpillProbe(b *testing.B) {
	m, port := benchMetro(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, site := m.Probe(0, fmt.Sprintf("t%d", i%8), port)
		if !rep.OK || site < 0 {
			b.Fatal("spill probe refused with every budget free")
		}
	}
}

// BenchmarkCatalogSync measures the steady-state anti-entropy round:
// every alive site exchanges versions with its ring successor over the
// sorted key union of a converged 64-title catalog (the recurring cost
// of every 250 ms anti-entropy tick, dominated by the scan, not by
// reconciliation).
func BenchmarkCatalogSync(b *testing.B) {
	m, _ := benchMetro(b, 64)
	m.SyncCatalog() // converge once; measured rounds reconcile nothing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SyncCatalog()
	}
}

// BenchmarkTelemetryCounter measures the telemetry hot path: one
// pre-resolved counter handle incremented from an event, the way
// instrumented producers count. The registry's contract is that this
// costs a plain non-atomic add — 0 allocs/op — so instrumentation can
// sit on the event kernel's fast path.
func BenchmarkTelemetryCounter(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter(telemetry.Key{Node: "vod0", Subsystem: "net", Name: "cells"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != int64(b.N) {
		b.Fatal("counter lost increments")
	}
}

// nullSink discards delivered cells; viewer endpoints in the fan-out
// benchmark only need the delivery events to exist, not the payloads.
// Like the production sinks it is burst-aware, so the demux hands it
// whole trains instead of dispatching cell by cell.
type nullSink struct{}

func (nullSink) HandleCell(atm.Cell)      {}
func (nullSink) HandleBurst(fabric.Burst) {}

// multicastBenchSite builds a one-switch site with a camera and eight
// viewer ports, puts one live broadcast on the air, and spreads
// `viewers` joins round-robin over the eight ports (joins beyond the
// first on a port are free rides on that port's tree branch). The
// returned step transmits one CBR frame and advances virtual time one
// frame period.
func multicastBenchSite(tb testing.TB, viewers int) (*core.Site, func()) {
	const fanPorts = 8
	cfg := core.DefaultSiteConfig()
	cfg.Ports = fanPorts + 1
	site := core.NewSite(cfg)
	cam := site.Attach("cam")
	bc, err := site.OpenBroadcast(core.BroadcastSpec{
		InPort:     cam.Port,
		PeakRate:   19_200_000,
		Title:      "live",
		FrameBytes: 4800,
		FrameHz:    100,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eps := make([]*core.Endpoint, fanPorts)
	for i := range eps {
		eps[i] = site.Attach(fmt.Sprintf("fan%d", i))
		eps[i].Demux.Register(bc.VCI(), nullSink{})
	}
	for i := 0; i < viewers; i++ {
		if _, err := bc.Join(eps[i%fanPorts].Port); err != nil {
			tb.Fatal(err)
		}
	}
	period := sim.Second / 100
	payload := make([]byte, 4800)
	step := func() {
		t, err := atm.NewTrain(bc.VCI(), devices.UUData, nil, payload)
		if err != nil {
			tb.Fatal(err)
		}
		cam.ToSwitch.SendTrain(t)
		site.Sim.RunFor(period)
	}
	return site, step
}

// BenchmarkMulticastFanout measures what one live frame costs the
// event kernel as the audience grows: one viewer on one port versus
// ten thousand viewers across eight ports. Fan-out work scales with
// switch outputs, not viewers — same-instant leaf deliveries coalesce
// into one event per cell train per switch — so the 10k-viewer case
// must stay within a small constant of the single-viewer case (the
// deterministic ratio is pinned by TestMulticastFanoutEventScaling).
func BenchmarkMulticastFanout(b *testing.B) {
	for _, viewers := range []int{1, 10000} {
		b.Run(fmt.Sprintf("viewers=%d", viewers), func(b *testing.B) {
			site, step := multicastBenchSite(b, viewers)
			fired0 := site.Sim.Fired()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			b.ReportMetric(float64(site.Sim.Fired()-fired0)/float64(b.N), "events/frame")
		})
	}
}

// TestMulticastFanoutEventScaling pins the fan-out cost model: 10k
// viewers of one channel across eight ports must cost < 3x the events
// of a single viewer per frame. Without delivery coalescing a frame
// costs one event per leaf (10 vs 3, a 3.33x ratio); with it the
// eight idle symmetric branches mature together (4 vs 3).
func TestMulticastFanoutEventScaling(t *testing.T) {
	const frames = 200
	perFrame := func(viewers int) float64 {
		site, step := multicastBenchSite(t, viewers)
		fired0 := site.Sim.Fired()
		for i := 0; i < frames; i++ {
			step()
		}
		return float64(site.Sim.Fired()-fired0) / frames
	}
	one := perFrame(1)
	many := perFrame(10000)
	t.Logf("events/frame: viewers=1 %.2f, viewers=10000 %.2f (%.2fx)", one, many, many/one)
	if many >= 3*one {
		t.Fatalf("fan-out cost scales with viewers: %.2f events/frame for 10k viewers vs %.2f for one (>= 3x)", many, one)
	}
}
