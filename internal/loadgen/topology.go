package loadgen

// Topology pieces: what a mode's streams run over. Every piece goes
// through the one site builder (siteConfig) and the one title-geometry
// function (titleGeometry), attaches the viewers and the storage
// servers, and — where requests are admitted one by one — installs the
// admitter the workload piece drives.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fileserver"
	"repro/internal/metro"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

// The cpu-bound mode's node CPU: a protocol-processing throughput of
// 1 MiB/s (CPU-bound on purpose) and a fixed per-frame cost that does
// not shrink with a degraded tier, which is what keeps the CPU — not
// the disks — the binding constraint even when every Adaptive session
// sits at its floor.
const (
	cpuBytesPerSec = 1 << 20
	cpuPerFrame    = sim.Millisecond
)

// fastDiskParams is the FastDisks geometry: flash-era mechanics
// (microsecond repositioning, 500 MB/s media rate). With the 1994
// drive, AvgPosition ≈ 12.6 ms caps a node at ~50 streams/round; this
// lifts the ceiling three orders of magnitude for 100k-session runs.
func fastDiskParams() disk.Params {
	return disk.Params{
		SeekMin: 20 * sim.Microsecond,
		SeekMax: 50 * sim.Microsecond,
		RotHalf: 25 * sim.Microsecond,
		Rate:    500_000_000,
	}
}

// siteConfig is the one place a Config becomes a site: link rate, cell
// model, port budget and disk mechanics.
func (c *Config) siteConfig(ports int) core.SiteConfig {
	s := core.DefaultSiteConfig()
	s.LinkRate = c.LinkRate
	s.CellAccurate = c.CellAccurate
	s.Ports = ports
	if c.FastDisks {
		p := fastDiskParams()
		s.DiskParams = &p
	}
	return s
}

func (c *Config) cmConfig() fileserver.CMConfig {
	return fileserver.CMConfig{Round: c.Round, CacheBytes: int64(c.CacheMB) << 20}
}

func (c *Config) vodConfig() vodsite.Config {
	return vodsite.Config{
		PeakRate:            c.PeakRate,
		ZipfS:               c.ZipfS,
		BaseReplicas:        c.BaseReplicas,
		ReplicationDisabled: c.ReplicationDisabled,
	}
}

// newSite builds the scenario's single site and adopts its kernel and
// registry, switching session tracing on before any admission so
// build-time refusals land in the trace. Requests are
// admitted directly unless the topology installs a controller.
func (sc *Scenario) newSite(ports int) {
	site := core.NewSite(sc.cfg.siteConfig(ports))
	sc.site, sc.sim, sc.reg = site, site.Sim, site.Metrics
	sc.adm = direct{sc}
	if sc.cfg.Trace {
		sc.tracer = site.EnableTrace()
	}
}

func (sc *Scenario) attachViewers() {
	sc.viewers = make([]*core.Endpoint, sc.cfg.Workstations)
	for i := range sc.viewers {
		sc.viewers[i] = sc.site.Attach(fmt.Sprintf("viewer%d", i))
	}
}

func titleName(t int) string { return fmt.Sprintf("title%d", t) }

// titleGeometry is the one place the stored shape of the catalog is
// computed: the bytes of one title (TitleRounds scheduler rounds of
// frames) and the segments a server's log needs to hold perServer of
// them. A synthesized run stores nothing.
func (sc *Scenario) titleGeometry(perServer int) (titleBytes, nseg int64) {
	cfg, m := &sc.cfg, sc.mode
	if !m.storageBacked(cfg) {
		return 0, m.logSlack
	}
	framesPerRound := int64(cfg.FrameHz) * int64(cfg.Round) / int64(sim.Second)
	titleBytes = int64(cfg.TitleRounds) * framesPerRound * int64(cfg.FrameBytes)
	perTitle := (titleBytes+m.segSize-1)/m.segSize + 1
	return titleBytes, int64(perServer)*perTitle + m.logSlack
}

// addServers adds cfg.Servers storage nodes to site — joining ctrl's
// replica set if there is one — with logs sized for perServer titles
// each, and reports the stored length of a title.
func (sc *Scenario) addServers(site *core.Site, prefix string, perServer int, ctrl *vodsite.Controller) int64 {
	titleBytes, nseg := sc.titleGeometry(perServer)
	for s := 0; s < sc.cfg.Servers; s++ {
		ss := site.NewStorageServer(fmt.Sprintf("%svod%d", prefix, s), int(sc.mode.segSize), nseg)
		if sc.cfg.CPUBound {
			// An admission-controlled protocol-processing CPU with a
			// deliberately small throughput: every session carries the CPU
			// leg, so the node refuses (or degrades) on CPU strictly
			// before its disks fill.
			ss.EnableCPU(core.CPUConfig{BytesPerSec: cpuBytesPerSec, PerFrame: cpuPerFrame})
		}
		if ctrl != nil {
			ctrl.AddNode(ss)
		}
		sc.Servers = append(sc.Servers, ss)
	}
	return titleBytes
}

// serveTitles adds the storage servers and spreads perServer titles
// onto each (title t lives on server t mod Servers). The writes take
// the ordinary service path (fileserver → lfs → raid), the log is synced
// so the data is on the platters — not in open segments — and the
// simulator is drained before the serving services start.
func (sc *Scenario) serveTitles(perServer int) {
	titleBytes := sc.addServers(sc.site, "", perServer, nil)
	sc.titles = perServer * sc.cfg.Servers
	if !sc.mode.storageBacked(&sc.cfg) {
		return
	}
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = byte(i * 17)
	}
	for t := 0; t < sc.titles; t++ {
		ss := sc.Servers[t%sc.cfg.Servers]
		name := titleName(t)
		if err := ss.Server.Create(name, true); err != nil {
			panic(fmt.Sprintf("loadgen: preload %s: %v", name, err))
		}
		for off := int64(0); off < titleBytes; off += int64(len(chunk)) {
			n := min(int64(len(chunk)), titleBytes-off)
			if err := ss.Server.Write(name, off, chunk[:n]); err != nil {
				panic(fmt.Sprintf("loadgen: preload %s: %v", name, err))
			}
		}
	}
	for _, ss := range sc.Servers {
		ss.Server.FS().Sync(func(err error) {
			if err != nil {
				panic(fmt.Sprintf("loadgen: preload sync: %v", err))
			}
		})
	}
	// Drain the preload I/O; nothing periodic is running yet, so the
	// event queue empties. The CM schedulers start only after this.
	sc.sim.Run()
	for _, ss := range sc.Servers {
		ss.EnableCM(sc.cfg.cmConfig())
	}
}

// placer is a catalog controller: it writes the titles it was given
// onto its nodes and then starts their serving services.
type placer interface {
	Place() error
	Start(fileserver.CMConfig)
}

func (sc *Scenario) placeCatalog(p placer) {
	sc.titles = sc.cfg.Titles
	if err := p.Place(); err != nil {
		panic(fmt.Sprintf("loadgen: %s placement: %v", sc.mode.name, err))
	}
	sc.sim.Run() // drain placement I/O; CM starts after
	p.Start(sc.cfg.cmConfig())
}

// atFailure schedules a fail-stop that far into the run (0: never).
func (sc *Scenario) atFailure(at sim.Duration, idx, of int, fail func(idx int)) {
	if at <= 0 {
		return
	}
	if idx %= of; idx < 0 { // Go's % preserves sign
		idx += of
	}
	sc.atRun = append(sc.atRun, func() { sc.sim.After(at, func() { fail(idx) }) })
}

// meshSite is the videophone site: every workstation is a camera port
// and a display port (meshStreams attaches them pairwise).
func (sc *Scenario) meshSite() { sc.newSite(2 * sc.cfg.Workstations) }

// serverSite is one site of viewers and fixed storage servers, each
// holding StreamsPerWS titles: the shared fan-out of plain and
// from-storage VoD, the unicast sessions of adaptive and cpu-bound.
func (sc *Scenario) serverSite() {
	sc.newSite(sc.cfg.Workstations + sc.cfg.Servers)
	sc.attachViewers()
	sc.serveTitles(sc.cfg.StreamsPerWS)
}

// liveSite is serverSite plus a camera port per channel. Sources pay
// for their uplink: the multicast tree charges each camera's once per
// channel, the unicast ablation once per viewer — the admission
// asymmetry the scoreboard exists to show.
func (sc *Scenario) liveSite() {
	cfg := &sc.cfg
	sc.newSite(cfg.Workstations + cfg.Channels + cfg.Servers)
	sc.site.Signalling.EnableUplinkAdmission()
	sc.attachViewers()
	if cfg.VodStreams > 0 {
		sc.serveTitles(2)
	}
}

// clusterSite is the multi-server VoD site: Servers storage nodes under
// an internal/vodsite controller and a Zipf-ranked catalog placed
// across them. Any node may come to hold any title through
// replication, so every log is sized for the whole catalog.
func (sc *Scenario) clusterSite() {
	cfg := &sc.cfg
	sc.newSite(cfg.Workstations + cfg.Servers)
	sc.attachViewers()
	sc.ctrl = vodsite.New(sc.site, cfg.vodConfig())
	titleBytes := sc.addServers(sc.site, "", cfg.Titles, sc.ctrl)
	for t := 0; t < cfg.Titles; t++ {
		sc.ctrl.AddTitle(titleName(t), titleBytes, cfg.FrameBytes, cfg.FrameHz)
	}
	sc.placeCatalog(sc.ctrl)

	sc.adm = siteAdmitter{sc.ctrl}
	// A new replica is fresh capacity: retry every pending request, and
	// let each refusal feed the replication trigger again.
	sc.ctrl.OnReplica = func(*vodsite.Title, *vodsite.Node) { sc.retryPending(false) }
	sc.ctrl.OnReadmit = func(st *vodsite.Stream) { sc.rewire(st.Tag.(*request)) }
	sc.ctrl.OnDrop = func(st *vodsite.Stream) { sc.drop(st.Tag.(*request)) }
	if cfg.CacheMB > 0 {
		// The build-time admission wave ran before any scheduler round
		// had fed the RAM tier, so no request could ride a wake. Once
		// leaders are streaming, refused requests become cache-servable:
		// retry them every round, offset half a round past the boundary
		// so the leaders' windows land first.
		sc.atRun = append(sc.atRun, func() { sc.sim.After(cfg.Round+cfg.Round/2, sc.retryCacheTick) })
	}
	nodes := sc.ctrl.Nodes()
	sc.atFailure(cfg.FailNodeAt, cfg.FailNode, len(nodes), func(i int) { sc.ctrl.FailNode(nodes[i]) })
}

// metroSites federates Sites vodsite sites, Servers nodes each, behind
// the internal/metro core switch and homes every viewer on site 0 — the
// flash-crowd geometry. Title t homes on site t%Sites with SiteReplicas
// consecutive holders, so the home site holds a slice of the catalog
// and the rest is remote; cross-site copies can land any title on any
// node, so every log is sized for the whole catalog.
func (sc *Scenario) metroSites() {
	cfg := &sc.cfg
	mctl := metro.New(metro.Config{
		Sites: cfg.Sites,
		// Site 0 carries every viewer on top of its serving nodes; the
		// geometry is uniform, so every site gets the same port budget
		// (the metro adds the trunk port itself).
		Site:           cfg.siteConfig(cfg.Workstations + cfg.Servers),
		Vod:            cfg.vodConfig(),
		NoSpill:        cfg.NoSpill,
		SpillThreshold: cfg.SpillThreshold,
	})
	sc.metroCtl, sc.sim, sc.reg = mctl, mctl.Clock(), mctl.Metrics()
	if cfg.Trace {
		sc.tracer = mctl.EnableTrace()
	}
	var titleBytes int64
	for i, mb := range mctl.Members() {
		titleBytes = sc.addServers(mb.Site, fmt.Sprintf("s%d.", i), cfg.Titles, mb.Ctrl)
	}
	sc.site = mctl.Member(0).Site
	sc.attachViewers()
	for t := 0; t < cfg.Titles; t++ {
		holders := make([]int, 0, cfg.SiteReplicas)
		for r := 0; r < cfg.SiteReplicas; r++ {
			holders = append(holders, (t+r)%cfg.Sites)
		}
		mctl.AddTitle(titleName(t), titleBytes, cfg.FrameBytes, cfg.FrameHz, holders)
	}
	sc.placeCatalog(mctl)

	sc.adm = metroAdmitter{mctl}
	// Bytes landing on the home site are fresh local capacity: retry the
	// pending requests some site would now admit.
	mctl.OnReplica = func(int, string) { sc.retryPending(true) }
	mctl.OnReadmit = func(s *metro.Session) { sc.rewire(s.Tag.(*request)) }
	mctl.OnDrop = func(s *metro.Session) { sc.drop(s.Tag.(*request)) }
	sc.atFailure(cfg.FailSiteAt, cfg.FailSite, cfg.Sites, func(i int) { mctl.FailSite(i) })
}
