// Package loadgen is the site-scale load generator and scoreboard: it
// admits N workstations × M streams through the signalling manager
// (videophone mesh, or VoD fan-out from storage servers), runs them for
// simulated seconds on the batched fabric fast path, and reports
// events/sec, cells/sec, admission verdicts and latency/jitter
// percentiles — the scaling numbers every performance PR is measured
// against.
//
// Streams are synthetic CBR frame sources (a fixed AAL5 payload at a
// fixed frame rate, stamped with the emission instant) rather than full
// camera devices: the point is to stress the event kernel, fabric and
// signalling layers at populations the pixel pipeline would drown out.
//
// The scenarios exercise the paper's whole guarantee chain at site
// scale: §2.2's ATM signalling admission on every link, §5's
// round-scheduled continuous-media file service on every disk array
// (-from-storage, -cluster), and §3.3's QoS-managed sessions — CPU
// reservations included — under the negotiate-down policy (-adaptive,
// -cpu-bound).
package loadgen

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fabric"
	"repro/internal/fileserver"
	"repro/internal/metro"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vodsite"
)

// Pattern selects the traffic topology.
type Pattern int

// Traffic patterns.
const (
	// Mesh is the videophone pattern: every workstation sends M streams
	// to M distinct peers, one circuit per stream.
	Mesh Pattern = iota
	// VoD is the video-on-demand pattern: storage servers publish
	// titles on point-to-multipoint circuits and every workstation
	// subscribes to M of them (the switch fans the cells out; the
	// server sends each title once).
	VoD
)

// String names the pattern as the pegload -pattern flag spells it.
func (p Pattern) String() string {
	switch p {
	case Mesh:
		return "mesh"
	case VoD:
		return "vod"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Config parameterises a load-generation scenario.
type Config struct {
	Pattern      Pattern
	Workstations int // N stations (mesh: senders+receivers; vod: viewers)
	StreamsPerWS int // M streams admitted per station

	// Servers is the storage-server count for VoD (default: one per 16
	// workstations). Each server publishes StreamsPerWS titles.
	Servers int

	// FrameBytes is the AAL5 payload per frame (default 960; min 16 for
	// the timestamp header). FrameHz is the per-stream frame rate
	// (default 100).
	FrameBytes int
	FrameHz    int

	// PeakRate is the admitted peak bits/s per stream leg; 0 derives
	// ~1.25x the wire demand of FrameBytes×FrameHz.
	PeakRate int64

	// Duration is the simulated run length (default 1 virtual second).
	Duration sim.Duration

	// LinkRate overrides the site's link bit rate (default 100 Mb/s).
	LinkRate int64

	// CellAccurate disables the batched fabric fast path (one event per
	// cell — the exact model, for validation runs).
	CellAccurate bool

	// FromStorage makes VoD titles real files on the servers' disk
	// arrays, served through the continuous-media round scheduler:
	// admission becomes the conjunction of link (netsig) and disk
	// (fileserver.CMService) guarantees, and every frame sent was read
	// off the striped array one round ahead. Implies Pattern == VoD.
	FromStorage bool

	// Round is the storage scheduler period (default 2 s); it must be a
	// whole number of frame periods. TitleRounds is the stored length of
	// each title in rounds (default 4); playout loops over it.
	Round       sim.Duration
	TitleRounds int

	// Cluster runs the multi-server VoD site: Servers storage nodes
	// under an internal/vodsite controller, a Zipf-ranked title catalog
	// placed across them, and every request admitted on whichever
	// replica's link∧disk budgets have room (unicast: one circuit per
	// viewer request, unlike the shared fan-out of plain VoD). Requests
	// a hot title over-subscribes are refused, which triggers reactive
	// replication; refused requests retry when a new replica joins the
	// catalog. Implies storage-backed serving; Round defaults to 1 s.
	Cluster bool

	// Titles is the catalog size (default 2×Servers). ZipfS is the
	// popularity exponent of both placement and request sampling
	// (default 1.3); Seed seeds the request sampler (default 1).
	Titles int
	ZipfS  float64
	Seed   int64

	// BaseReplicas / RefusalThreshold / MaxReplicas /
	// ReplicationDisabled pass through to vodsite.Config.
	BaseReplicas        int
	RefusalThreshold    int
	MaxReplicas         int
	ReplicationDisabled bool

	// FailNodeAt tears node FailNode down that far into the run
	// (0: never): its circuits are released and its streams re-admitted
	// on surviving replicas.
	FailNodeAt sim.Duration
	FailNode   int

	// Metro federates Sites vodsite sites behind a two-tier fabric
	// (internal/metro) and homes every viewer on site 0 — the flash-
	// crowd scenario: requests the home site cannot carry spill to
	// neighbor sites across the core switch, with the inter-site trunk
	// as an explicit admission leg. Implies storage-backed serving;
	// each site gets Servers nodes and the catalog spreads over the
	// sites SiteReplicas wide.
	Metro bool
	// Sites is the federation size (default 3). SiteReplicas is how
	// many sites hold each title's bytes (default 2, capped at Sites).
	Sites        int
	SiteReplicas int
	// NoSpill runs the single-site ablation: home-site refusals are
	// final. TrunkRate overrides the per-direction trunk capacity.
	// SpillThreshold passes through to metro.Config (cross-site lazy
	// replication trigger). FailSiteAt kills whole site FailSite that
	// far into the run (0: never).
	NoSpill        bool
	TrunkRate      int64
	SpillThreshold int
	FailSiteAt     sim.Duration
	FailSite       int

	// Adaptive runs the degrade-instead-of-refuse scenario: every
	// request is one unicast disk-backed stream opened as an
	// Adaptive-class core.Session, so an over-subscribed site scales
	// sessions down the tier ladder to admit more streams instead of
	// refusing, and restores them as capacity frees. Implies
	// storage-backed VoD; Round defaults to 500 ms and FrameBytes to
	// 19200 (windows must span many stripe chunks for a tier drop to
	// shrink the per-disk cost).
	Adaptive bool

	// GuaranteedOnly forces every session to the Guaranteed class —
	// the ablation an Adaptive scoreboard is compared against.
	GuaranteedOnly bool

	// CPUBound runs the CPU-constrained scenario: unicast disk-backed
	// streams as in Adaptive mode, but every serving node's Nemesis CPU
	// is admission-controlled (core.NodeCPU) with a deliberately small
	// protocol-processing throughput and small per-stream rates, so the
	// processor — not the disks or links — is the scarce resource.
	// Admission is then the full link ∧ uplink ∧ disk ∧ CPU
	// conjunction: a Guaranteed run refuses on CPU strictly before any
	// disk budget fills, an Adaptive run (-adaptive) walks sessions
	// down the tier ladder on a CPU refusal exactly as it does for
	// links and disks, and every admitted stream's protocol domain must
	// meet every EDF deadline.
	CPUBound bool

	// CPUBytesPerSec is the nodes' protocol-processing throughput in
	// bytes/s (default 1 MiB/s — CPU-bound on purpose). CPUPerFrame is
	// the fixed per-frame protocol cost (default 1 ms); it does not
	// shrink with a degraded tier, which is what keeps the CPU — not
	// the disks — the binding constraint even when every Adaptive
	// session sits at its floor.
	CPUBytesPerSec int64
	CPUPerFrame    sim.Duration

	// Live runs the live-broadcast flash crowd: Channels switch-level
	// multicast channels on the air, a Zipf-popularity churn of viewer
	// joins and leaves (Workstations × StreamsPerWS join attempts, hold
	// times exponential around HoldMean), and VodStreams disk-backed
	// Guaranteed VoD sessions sharing the viewer links and server disks.
	// A join the link budget refuses degrades that channel's subtree
	// down the tier ladder instead of refusing. Shards: Partitions is
	// allowed, with the usual determinism contract.
	Live bool
	// Channels is the number of live channels (default 4). Each gets
	// its own camera port and one uplink reservation however many
	// viewers join.
	Channels int
	// HoldMean is the mean viewer hold time (default: a quarter of
	// Duration).
	HoldMean sim.Duration
	// VodStreams is the background VoD population (default
	// Workstations/2; negative disables).
	VodStreams int
	// Unicast is the live ablation twin: every viewer gets their own
	// circuit from the camera — uplink charged per viewer, one
	// transmitted copy each, no subtree ladder — so the scoreboard can
	// state what the multicast tree bought.
	Unicast bool

	// ReleaseAt closes every ReleaseEvery'th admitted stream that far
	// into an Adaptive run (defaults: half the duration, every 3rd;
	// ReleaseEvery < 0 disables), freeing budget the site uses to
	// restore degraded survivors.
	ReleaseAt    sim.Duration
	ReleaseEvery int

	// Partitions shards the event kernel across that many conservative-
	// lookahead partitions (see core.SiteConfig.Partitions): nodes are
	// spread round-robin, each partition runs on its own goroutine, and
	// the run is deterministic for a given (Seed, Partitions) pair — with
	// Partitions == 1 bit-identical to the serial kernel. Zero keeps the
	// serial kernel. Requires Cluster mode, where every stream is
	// unicast and node-owned; the shared-fabric patterns stay serial.
	Partitions int

	// FastDisks swaps the 1994 drive mechanics for flash-era ones
	// (~35 µs repositioning, 500 MB/s media rate), lifting per-node
	// stream counts from tens to tens of thousands — the knob 100k-
	// session cluster runs turn.
	FastDisks bool

	// CacheMB sizes each serving node's RAM buffer tier in MiB
	// (storage-backed modes; 0 disables). With a cache, a request
	// trailing another viewer of the same title is admitted against the
	// leader's wake in memory — charging no disk round budget — so a
	// Zipf-hot catalog serves far more streams than the disk arms alone
	// admit. In cluster mode, requests the disks refuse at build time
	// are retried each round once a leader's wake becomes resident.
	CacheMB int

	// Trace switches per-session lifecycle tracing on (see
	// Scenario.WriteTrace). Excluded from the scoreboard's config echo
	// so enabling telemetry cannot change scoreboard bytes.
	Trace bool `json:"-"`

	// MetricsEvery is the sim-time cadence of the metrics time-series
	// sampler (0 disables; see Scenario.WriteMetrics). Excluded from
	// the config echo for the same reason as Trace.
	MetricsEvery sim.Duration `json:"-"`
}

// class is the QoS class sessions are opened with.
func (c *Config) class() core.QoSClass {
	if c.Adaptive && !c.GuaranteedOnly {
		return core.Adaptive
	}
	return core.Guaranteed
}

// Result is the scoreboard of one run. The json tags are a stable,
// named serialization contract: `pegload -json` emits exactly these
// columns via Result.JSON, and CI assertions read the same struct —
// renaming a Go field must not silently rename a scoreboard column.
type Result struct {
	Config Config `json:"config"`

	Admitted int `json:"admitted"`  // stream legs admitted by signalling
	Rejected int `json:"rejected"`  // stream legs refused by admission control
	TornDown int `json:"torn_down"` // teardowns performed (churn)

	FramesSent      int64 `json:"frames_sent"`
	FramesDelivered int64 `json:"frames_delivered"`
	CellsDelivered  int64 `json:"cells_delivered"`
	EventsFired     int64 `json:"events_fired"`

	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`

	// Wall-clock simulator throughput: the scaling numbers.
	EventsPerSec float64 `json:"events_per_sec"`
	CellsPerSec  float64 `json:"cells_per_sec"`

	// Frame delivery latency (emission to last-cell arrival) and
	// completion jitter (|inter-arrival − frame period|), nanoseconds of
	// virtual time.
	LatencyP50 float64 `json:"latency_p50_ns"`
	LatencyP99 float64 `json:"latency_p99_ns"`
	LatencyMax float64 `json:"latency_max_ns"`
	JitterP50  float64 `json:"jitter_p50_ns"`
	JitterP99  float64 `json:"jitter_p99_ns"`

	// Storage-backed serving (FromStorage and Cluster runs).
	StorageStreams int `json:"storage_streams"` // disk-backed title streams admitted and up
	// StorageRefused counts disk-bandwidth refusals: titles refused
	// (FromStorage), or per-replica refusal attempts during selection
	// (Cluster — one site refusal probes several replicas).
	StorageRefused int   `json:"storage_refused"`
	RoundOverruns  int64 `json:"round_overruns"`  // scheduler rounds whose reads outlived the round
	Underruns      int64 `json:"underruns"`       // playout ticks that found no buffered data
	StorageBytes   int64 `json:"storage_bytes"`   // bytes streamed out of server read-ahead buffers
	DiskBytesRead  int64 `json:"disk_bytes_read"` // bytes the server disk heads actually read

	// RAM-tier scoreboard (CacheMB > 0 runs): streams riding another
	// viewer's wake instead of the disk arms, and the hit/demotion
	// traffic behind them.
	CacheServedStreams int   `json:"cache_served_streams"` // open streams currently served from a wake
	CacheHits          int64 `json:"cache_hits"`           // windows served out of the RAM tier
	CacheMisses        int64 `json:"cache_misses"`         // cache-served fetches that found no window
	CacheDemotions     int64 `json:"cache_demotions"`      // streams pushed back onto the disk budget
	CacheBytesServed   int64 `json:"cache_bytes_served"`   // bytes streamed without touching a disk

	// Ablation column (pegload -cache-ablation): the no-cache twin
	// run's stream count and the cached/ablation admission ratio.
	AblationStreams int     `json:"ablation_streams,omitempty"`
	CacheRatio      float64 `json:"cache_ratio,omitempty"`

	// Multi-server site scoreboard (Cluster runs; Metro runs share
	// SiteRefused for requests no site could carry).
	NodeAdmissions    []int64 `json:"node_admissions"`    // cumulative admissions per node (incl. failover)
	SiteRefused       int     `json:"site_refused"`       // requests no replica could carry, still pending at end
	ReplicasTriggered int64   `json:"replicas_triggered"` // reactive replications scheduled
	ReplicasCompleted int64   `json:"replicas_completed"` // replicas that joined the catalog
	FailoverRecovered int64   `json:"failover_recovered"` // streams re-admitted on surviving replicas
	FailoverDropped   int64   `json:"failover_dropped"`   // streams lost with their node

	// Metro federation scoreboard (Metro runs only).
	SiteServed        []int64 `json:"site_served,omitempty"`        // open sessions served per site at end
	Spilled           int64   `json:"spilled,omitempty"`            // cross-site admissions
	TrunkRefused      int64   `json:"trunk_refused,omitempty"`      // refusals where the trunk was the binding leg
	SiteRecovered     int64   `json:"site_recovered,omitempty"`     // sessions re-admitted on survivors after FailSite
	SiteDropped       int64   `json:"site_dropped,omitempty"`       // sessions lost to a site failure
	CatalogSyncs      int64   `json:"catalog_syncs,omitempty"`      // anti-entropy rounds run
	CatalogReconciled int64   `json:"catalog_reconciled,omitempty"` // catalog rows brought up to date
	CrossSiteCopies   int64   `json:"cross_site_copies,omitempty"`  // lazy byte replications completed
	// Ablation column (pegload -spill-ablation): the no-spill twin
	// run's admission count.
	SpillAblationAdmitted int `json:"spill_ablation_admitted,omitempty"`

	// Live-broadcast scoreboard (Live runs only). FanoutCellsSaved is
	// the copies the switch replicated that the source never had to
	// transmit; FanoutRatio is delivered copies per transmitted copy —
	// (source cells + saved) / source cells, 1.0 for the unicast twin.
	Broadcasts       int     `json:"broadcasts,omitempty"`
	LiveJoins        int64   `json:"joins,omitempty"`
	LiveLeaves       int64   `json:"leaves,omitempty"`
	LiveJoinRefused  int64   `json:"join_refused,omitempty"`
	SubtreeDegraded  int64   `json:"subtree_degraded,omitempty"`
	SubtreeRestored  int64   `json:"subtree_restored,omitempty"`
	LiveSourceCells  int64   `json:"live_source_cells,omitempty"`
	FanoutCellsSaved int64   `json:"fanout_cells_saved,omitempty"`
	FanoutRatio      float64 `json:"fanout_ratio,omitempty"`
	// Ablation column (pegload -unicast-ablation): the per-viewer-
	// circuit twin run's admitted join count.
	UnicastAblationJoins int64 `json:"unicast_ablation_joins,omitempty"`

	// QoS-session scoreboard (Adaptive and CPUBound runs).
	SessionsUp       int   `json:"sessions_up"`       // sessions open at end of run
	SessionsDegraded int   `json:"sessions_degraded"` // open sessions currently below full quality
	DegradeEvents    int64 `json:"degrade_events"`    // times a session dropped a tier
	RestoreEvents    int64 `json:"restore_events"`    // times a degraded session climbed back up

	// CPU scoreboard (CPUBound runs only).
	CPURefused     int     `json:"cpu_refused"`     // session opens refused by the CPU leg
	DeadlineMisses int64   `json:"deadline_misses"` // EDF deadline overruns across all stream domains
	CPUReserved    float64 `json:"cpu_reserved"`    // worst node's reserved fraction of its CPU cap
	DiskCommitted  float64 `json:"disk_committed"`  // worst node's committed fraction of its disk budget
}

// JSON renders the scoreboard in its stable serialized form — the
// bytes `pegload -json` prints and scripted assertions parse.
func (r Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the scoreboard.
func (r Result) String() string {
	s := fmt.Sprintf(
		"pegload %s: ws=%d streams/ws=%d admitted=%d rejected=%d torndown=%d\n"+
			"  sim %.2fs: %d frames sent, %d delivered, %d cells, %d events\n"+
			"  wall %.2fs: %.2fM events/s, %.2fM cells/s\n"+
			"  latency p50=%v p99=%v max=%v\n"+
			"  jitter  p50=%v p99=%v",
		r.Config.Pattern, r.Config.Workstations, r.Config.StreamsPerWS,
		r.Admitted, r.Rejected, r.TornDown,
		r.SimSeconds, r.FramesSent, r.FramesDelivered, r.CellsDelivered, r.EventsFired,
		r.WallSeconds, r.EventsPerSec/1e6, r.CellsPerSec/1e6,
		sim.Duration(r.LatencyP50), sim.Duration(r.LatencyP99), sim.Duration(r.LatencyMax),
		sim.Duration(r.JitterP50), sim.Duration(r.JitterP99))
	if r.Config.StorageBacked() {
		s += fmt.Sprintf(
			"\n  storage: streams=%d refused=%d underruns=%d overruns=%d"+
				" streamed=%.1fMB disk-read=%.1fMB",
			r.StorageStreams, r.StorageRefused, r.Underruns, r.RoundOverruns,
			float64(r.StorageBytes)/1e6, float64(r.DiskBytesRead)/1e6)
	}
	if r.Config.CacheMB > 0 {
		s += fmt.Sprintf(
			"\n  cache: served-streams=%d hits=%d misses=%d demotions=%d served=%.1fMB",
			r.CacheServedStreams, r.CacheHits, r.CacheMisses, r.CacheDemotions,
			float64(r.CacheBytesServed)/1e6)
	}
	if r.AblationStreams > 0 {
		s += fmt.Sprintf("\n  ablation: no-cache streams=%d cached streams=%d ratio=%.2fx",
			r.AblationStreams, r.StorageStreams, r.CacheRatio)
	}
	if r.Config.Cluster {
		s += fmt.Sprintf(
			"\n  site: node-admissions=%v site-refused=%d"+
				" replicas triggered=%d completed=%d",
			r.NodeAdmissions, r.SiteRefused, r.ReplicasTriggered, r.ReplicasCompleted)
		if r.Config.FailNodeAt > 0 {
			s += fmt.Sprintf("\n  failover: recovered=%d dropped=%d",
				r.FailoverRecovered, r.FailoverDropped)
		}
	}
	if r.Config.Metro {
		s += fmt.Sprintf(
			"\n  metro: site-served=%v spilled=%d trunk-refused=%d refused=%d"+
				"\n  catalog: syncs=%d reconciled=%d cross-copies=%d",
			r.SiteServed, r.Spilled, r.TrunkRefused, r.SiteRefused,
			r.CatalogSyncs, r.CatalogReconciled, r.CrossSiteCopies)
		if r.Config.FailSiteAt > 0 {
			s += fmt.Sprintf("\n  site-failover: recovered=%d dropped=%d",
				r.SiteRecovered, r.SiteDropped)
		}
		if r.SpillAblationAdmitted > 0 {
			s += fmt.Sprintf("\n  ablation: no-spill admitted=%d spill admitted=%d",
				r.SpillAblationAdmitted, r.Admitted)
		}
	}
	if r.Config.Live {
		s += fmt.Sprintf(
			"\n  live: broadcasts=%d joins=%d leaves=%d join-refused=%d"+
				" subtree-degraded=%d subtree-restored=%d"+
				"\n  fanout: source-cells=%d saved=%d ratio=%.2fx",
			r.Broadcasts, r.LiveJoins, r.LiveLeaves, r.LiveJoinRefused,
			r.SubtreeDegraded, r.SubtreeRestored,
			r.LiveSourceCells, r.FanoutCellsSaved, r.FanoutRatio)
		if r.UnicastAblationJoins > 0 {
			s += fmt.Sprintf("\n  ablation: unicast joins=%d multicast joins=%d",
				r.UnicastAblationJoins, r.LiveJoins)
		}
	}
	if r.Config.Adaptive || r.Config.CPUBound {
		s += fmt.Sprintf(
			"\n  qos: sessions=%d degraded=%d degrade-events=%d restore-events=%d",
			r.SessionsUp, r.SessionsDegraded, r.DegradeEvents, r.RestoreEvents)
	}
	if r.Config.CPUBound {
		s += fmt.Sprintf(
			"\n  cpu: refused=%d deadline-misses=%d reserved=%.0f%% disk-committed=%.0f%%",
			r.CPURefused, r.DeadlineMisses, 100*r.CPUReserved, 100*r.DiskCommitted)
	}
	return s
}

// Frame payload header: emission timestamp + sequence + magic.
const (
	headerSize = 16
	magic      = 0x5045474c // "PEGL"
)

// stampedTrain describes one frame on the wire: the 16-byte header
// (stamp, seq, magic) as the train's by-value head over payload's first
// headerSize bytes, the rest of payload borrowed as its body. Nothing is
// written into payload — it may be a window of the shared RAM tier — and
// an earlier frame still in flight never sees this one's stamp.
func stampedTrain(vci atm.VCI, payload []byte, now sim.Time, seq uint32) atm.Train {
	var head [headerSize]byte
	binary.BigEndian.PutUint64(head[0:], uint64(now))
	binary.BigEndian.PutUint32(head[8:], seq)
	binary.BigEndian.PutUint32(head[12:], magic)
	t, err := atm.NewTrain(vci, devices.UUData, head[:], payload[headerSize:])
	if err != nil {
		panic("loadgen: frame exceeds AAL5 limit")
	}
	return t
}

// source is a CBR frame generator on one circuit. With cm set, each
// frame's payload is pulled from the storage read-ahead buffer instead
// of synthesized; an underrun skips the frame (counted by the service).
// A source lives on the partition of the node whose uplink it feeds;
// migrate moves it when failover rewires the stream to another node.
type source struct {
	sim     *sim.Sim
	out     *fabric.Link
	vci     atm.VCI
	period  sim.Duration
	payload []byte
	cm      *fileserver.CMStream
	seq     uint32
	running bool
	chained bool
	ev      *sim.Event         // pending tick (nil between ticks)
	tickF   func()             // s.tick, bound once: a method value allocates per use
	sent    *telemetry.Counter // partition-owned frames-sent counter
}

func (s *source) start(phase sim.Duration) {
	s.running = true
	if !s.chained {
		s.chained = true
		s.tickF = s.tick
		s.ev = s.sim.After(phase, s.tickF)
	}
}

func (s *source) stop() { s.running = false }

// migrate rebinds the source to another partition's timeline (the node
// a failover re-admitted the stream on). Global context only: the
// pending tick on the old partition is cancelled, so no event chain
// survives on a timeline the source no longer belongs to.
func (s *source) migrate(to *sim.Sim, sent *telemetry.Counter) {
	if s.ev != nil {
		s.sim.Cancel(s.ev)
		s.ev = nil
		s.chained = false
	}
	s.sim = to
	s.sent = sent
}

func (s *source) tick() {
	s.ev = nil
	if !s.running {
		s.chained = false
		return
	}
	payload := s.payload
	if s.cm != nil {
		data, ok := s.cm.NextFrame()
		if !ok {
			s.ev = s.sim.After(s.period, s.tickF)
			return
		}
		payload = data
	}
	s.out.SendTrain(stampedTrain(s.vci, payload, s.sim.Now(), s.seq))
	s.seq++
	s.sent.Inc()
	s.ev = s.sim.After(s.period, s.tickF)
}

// sink measures one stream leg at its receiving endpoint. It is
// burst-aware (one callback per frame on the fast path) and falls back
// to per-cell reassembly bookkeeping in cell-accurate mode; both paths
// observe identical frame-completion times. A sink runs on its viewer's
// partition and counts into that partition's registry shard.
type sink struct {
	sim    *sim.Sim
	tl     *traffic
	period sim.Duration

	haveLast sim.Time
	started  bool

	// cell-accurate reassembly state: emission stamp of the frame in
	// progress (cells arrive in order on a VC).
	midFrame bool
	stamp    sim.Time
	cells    int
}

func (k *sink) frameDone(stamp sim.Time, ncells int) {
	now := k.sim.Now()
	k.tl.framesDelivered.Inc()
	k.tl.cellsDelivered.Add(int64(ncells))
	k.tl.latency.Add(float64(now - stamp))
	if k.started {
		j := float64((now - k.haveLast) - k.period)
		if j < 0 {
			j = -j
		}
		k.tl.jitter.Add(j)
	}
	k.started = true
	k.haveLast = now
}

// HandleBurst scores a whole frame delivered on the batched fast path.
func (k *sink) HandleBurst(b fabric.Burst) {
	stamp := sim.Time(binary.BigEndian.Uint64(b.Train.Head()))
	k.frameDone(stamp, b.Train.Len())
}

// HandleCell reassembles cell-accurate deliveries, scoring the frame
// when its end-of-frame cell arrives.
func (k *sink) HandleCell(c atm.Cell) {
	if !k.midFrame {
		k.stamp = sim.Time(binary.BigEndian.Uint64(c.Payload[0:]))
		k.midFrame = true
		k.cells = 0
	}
	k.cells++
	if c.EndOfFrame() {
		k.midFrame = false
		k.frameDone(k.stamp, k.cells)
	}
}

// Scenario is a built site plus its admitted streams, ready to run.
type Scenario struct {
	cfg  Config
	mode *mode

	// site is the single site — in a metro, the viewers' home site.
	// clock, reg, clu and tracer are the run loop, metrics registry,
	// partition cluster (nil when serial) and session tracer (nil unless
	// Config.Trace) of whichever topology owns them.
	site   *core.Site
	clock  sim.Scheduler
	reg    *telemetry.Registry
	clu    *sim.Cluster
	tracer *telemetry.Tracer

	// Servers are the storage nodes (nil for mesh); viewers the
	// receiving endpoints.
	Servers []*core.StorageServer
	viewers []*core.Endpoint
	titles  int // catalog size the servers hold

	// The admitter the topology installed, every request the workload
	// issued through it, and the ones no budget could carry (retried
	// when a replica or cross-site copy lands).
	adm      admitter
	requests []*request
	pending  []*request
	ctrl     *vodsite.Controller // cluster topology
	metroCtl *metro.Controller   // metro topology

	// atRun are the run-time verbs the pieces registered (churn,
	// releases, failures): Run schedules them after starting the sources.
	atRun []func()

	// Live-mode state: the on-air channels and the pre-sampled churn
	// schedule.
	channels []*liveChannel
	livePlan []liveJoinPlan

	admitted, rejected, tornDown int
	traffics                     []*traffic
	sampler                      *telemetry.Sampler
	runStart                     sim.Time
	firedStart                   int64
	ticksStart                   int64
}

// traffic is one partition's share of the frame scoreboard, now a view
// over the site's metrics registry: the handles resolve to the shard of
// the partition the sources and sinks run on, so hot-path counting
// stays single-writer and collect reads the merged totals after the
// run.
type traffic struct {
	sim             *sim.Sim
	framesSent      *telemetry.Counter
	framesDelivered *telemetry.Counter
	cellsDelivered  *telemetry.Counter
	latency, jitter *stats.Sample
}

func trafficKey(name string) telemetry.Key {
	return telemetry.Key{Node: "loadgen", Subsystem: "traffic", Name: name}
}

// trafficFor returns (creating on first use) the registry handles for a
// partition's timeline. Global context only; the handful of partitions
// makes the linear scan irrelevant.
func (sc *Scenario) trafficFor(s *sim.Sim) *traffic {
	for _, t := range sc.traffics {
		if t.sim == s {
			return t
		}
	}
	p := s.Partition()
	t := &traffic{
		sim:             s,
		framesSent:      sc.reg.Counter(p, trafficKey("frames_sent")),
		framesDelivered: sc.reg.Counter(p, trafficKey("frames_delivered")),
		cellsDelivered:  sc.reg.Counter(p, trafficKey("cells_delivered")),
		latency:         sc.reg.Sample(p, trafficKey("latency_ns")),
		jitter:          sc.reg.Sample(p, trafficKey("jitter_ns")),
	}
	sc.traffics = append(sc.traffics, t)
	return t
}

// framesDeliveredTotal sums delivered frames across partitions (for
// tests probing mid-run progress). Quiescent context only.
func (sc *Scenario) framesDeliveredTotal() int64 {
	return sc.reg.CounterValue(trafficKey("frames_delivered"))
}

// Site exposes the underlying site (switch, signalling) for assertions:
// the single site, or the viewers' home site of a metro.
func (sc *Scenario) Site() *core.Site { return sc.site }

// Controller exposes the cluster's site controller for assertions.
func (sc *Scenario) Controller() *vodsite.Controller { return sc.ctrl }

// Metro exposes the federation controller for assertions.
func (sc *Scenario) Metro() *metro.Controller { return sc.metroCtl }

// WriteMetrics emits the sampled time series as columnar JSON. Call
// after Run; requires Config.MetricsEvery > 0.
func (sc *Scenario) WriteMetrics(w io.Writer) error {
	if sc.sampler == nil {
		return errors.New("loadgen: metrics sampling not enabled (Config.MetricsEvery)")
	}
	return sc.sampler.WriteJSON(w)
}

// WriteTrace emits the per-session lifecycle trace as JSON lines. Call
// after Run; requires Config.Trace.
func (sc *Scenario) WriteTrace(w io.Writer) error {
	if sc.tracer == nil {
		return errors.New("loadgen: tracing not enabled (Config.Trace)")
	}
	return sc.tracer.WriteJSONL(w)
}

// Streams exposes every request the workload issued, admitted or not,
// for churn driving and assertions.
func (sc *Scenario) Streams() []*Stream { return sc.requests }

// Build constructs the scenario cfg's mode names (see modes): the
// topology piece builds the site, viewers and servers, the workload
// piece admits every stream through signalling and wires sources and
// measuring sinks. Sources are not yet started. Build panics with
// Validate's error on a Config no mode accepts.
func Build(cfg Config) *Scenario {
	m, err := cfg.resolve()
	if err != nil {
		panic(err.Error())
	}
	sc := &Scenario{cfg: cfg, mode: m}
	m.topology(sc)
	m.workload(sc)
	return sc
}

// Run starts every admitted source, advances the simulation by the
// configured duration and returns the scoreboard. Storage-backed
// sources start themselves when their first read-ahead window is
// buffered (one scheduler round into the run).
func (sc *Scenario) Run() Result {
	for _, r := range sc.requests {
		if r.h != nil && r.src.cm == nil {
			r.src.start(r.phase)
		}
	}
	// Churn, release and failure are control-plane verbs that touch many
	// partitions' state: they run in global (barrier) context.
	for _, verb := range sc.atRun {
		verb()
	}
	// The sampler attaches to lookahead barriers when the kernel is
	// actually parallel (zero events, zero perturbation); serial and
	// single-partition runs chain a self-rescheduling tick instead,
	// whose firings collect subtracts back out of EventsFired.
	if sc.cfg.MetricsEvery > 0 && sc.sampler == nil {
		sc.sampler = telemetry.NewSampler(sc.reg, sc.cfg.MetricsEvery)
		if sc.clu != nil && sc.clu.Parts() > 1 {
			sc.sampler.AttachBarrier(sc.clu)
		} else {
			sc.sampler.Chain(sc.clock)
		}
	}
	sc.runStart = sc.clock.Now()
	sc.firedStart = sc.clock.Fired()
	if sc.sampler != nil {
		sc.ticksStart = sc.sampler.Ticks()
	}
	wall := time.Now()
	sc.clock.RunFor(sc.cfg.Duration)
	if sc.sampler != nil {
		sc.sampler.Final(sc.clock.Now())
	}
	return sc.collect(time.Since(wall))
}

func (sc *Scenario) collect(wall time.Duration) Result {
	// The scoreboard is a view over the registry: merge the per-shard
	// counters and samples. Quantiles sort the merged sample, so the
	// result is independent of merge order. A chained sampler's own
	// tick events are subtracted back out of the events-fired score so
	// telemetry on vs off yields byte-identical scoreboards.
	latency := sc.reg.MergedSample(trafficKey("latency_ns"))
	jitter := sc.reg.MergedSample(trafficKey("jitter_ns"))
	var ticks int64
	if sc.sampler != nil {
		ticks = sc.sampler.Ticks() - sc.ticksStart
	}
	r := Result{
		Config:          sc.cfg,
		Admitted:        sc.admitted,
		Rejected:        sc.rejected,
		TornDown:        sc.tornDown,
		FramesSent:      sc.reg.CounterValue(trafficKey("frames_sent")),
		FramesDelivered: sc.reg.CounterValue(trafficKey("frames_delivered")),
		CellsDelivered:  sc.reg.CounterValue(trafficKey("cells_delivered")),
		EventsFired:     sc.clock.Fired() - sc.firedStart - ticks,
		SimSeconds:      (sc.clock.Now() - sc.runStart).Seconds(),
		WallSeconds:     wall.Seconds(),
		LatencyP50:      latency.Quantile(0.5),
		LatencyP99:      latency.Quantile(0.99),
		LatencyMax:      latency.Max(),
		JitterP50:       jitter.Quantile(0.5),
		JitterP99:       jitter.Quantile(0.99),
	}
	if r.WallSeconds > 0 {
		r.EventsPerSec = float64(r.EventsFired) / r.WallSeconds
		r.CellsPerSec = float64(r.CellsDelivered) / r.WallSeconds
	}
	// The cluster and metro controllers admit through per-node selection
	// probes, so their disk refusals are the CM services' own count; a
	// fixed-server run reads the site's — the same core.RefusalLeg
	// taxonomy the trace events carry.
	byController := sc.ctrl != nil || sc.metroCtl != nil
	if sc.mode.storageBacked(&sc.cfg) {
		if !byController {
			r.StorageRefused = int(sc.site.QoSStats.RefusedLeg[core.LegDisk])
		}
		for _, req := range sc.requests {
			if req.h == nil {
				continue
			}
			r.StorageStreams++
			if s := req.h.Serving(); s != nil && s.CacheServed() {
				r.CacheServedStreams++
			}
		}
		for _, ss := range sc.Servers {
			if ss.CM != nil {
				if byController {
					r.StorageRefused += int(ss.CM.Stats.Refused)
				}
				r.RoundOverruns += ss.CM.Stats.RoundOverruns
				r.Underruns += ss.CM.Stats.Underruns
				r.StorageBytes += ss.CM.Stats.BytesStreamed
				r.CacheHits += ss.CM.Stats.CacheHits
				r.CacheMisses += ss.CM.Stats.CacheMisses
				r.CacheDemotions += ss.CM.Stats.CacheDemotions
				r.CacheBytesServed += ss.CM.Stats.CacheBytesServed
			}
			arr := ss.Server.FS().Array()
			for i := 0; i < raid.TotalDisks; i++ {
				r.DiskBytesRead += arr.Disk(i).Stats.BytesRead
			}
		}
	}
	if byController {
		r.SiteRefused = len(sc.pending)
	}
	if sc.ctrl != nil {
		st := sc.ctrl.Stats
		r.ReplicasTriggered, r.ReplicasCompleted = st.ReplicasTriggered, st.ReplicasCompleted
		r.FailoverRecovered, r.FailoverDropped = st.FailoverRecovered, st.FailoverDropped
		for _, nd := range sc.ctrl.Nodes() {
			r.NodeAdmissions = append(r.NodeAdmissions, nd.Admissions)
		}
	}
	if sc.metroCtl != nil {
		ms := sc.metroCtl.Stats
		r.Spilled = ms.Spilled
		r.TrunkRefused = ms.TrunkRefused
		r.SiteRecovered = ms.Recovered
		r.SiteDropped = ms.Dropped
		r.CatalogSyncs = ms.CatalogSyncs
		r.CatalogReconciled = ms.CatalogReconciled
		r.CrossSiteCopies = ms.CrossCopiesCompleted
		r.SiteServed = make([]int64, sc.metroCtl.Sites())
		for _, s := range sc.metroCtl.Sessions() {
			if !s.Closed() {
				r.SiteServed[s.Served]++
			}
		}
	}
	if sc.cfg.Live {
		lv := sc.site.LiveStats
		r.Broadcasts = int(lv.Broadcasts)
		r.LiveJoins = lv.Joins
		r.LiveLeaves = lv.Leaves
		r.LiveJoinRefused = lv.JoinRefused
		r.SubtreeDegraded = lv.SubtreeDegraded
		r.SubtreeRestored = lv.SubtreeRestored
		r.LiveSourceCells = sc.reg.CounterValue(liveKey("source_cells"))
		r.FanoutCellsSaved = sc.reg.CounterValue(liveKey("fanout_saved"))
		if r.LiveSourceCells > 0 {
			r.FanoutRatio = float64(r.LiveSourceCells+r.FanoutCellsSaved) / float64(r.LiveSourceCells)
		}
	}
	if sc.cfg.Adaptive || sc.cfg.CPUBound {
		for _, req := range sc.requests {
			if req.h == nil {
				continue
			}
			r.SessionsUp++
			if req.h.Serving().Degraded() {
				r.SessionsDegraded++
			}
		}
		r.DegradeEvents = sc.site.QoSStats.Degraded
		r.RestoreEvents = sc.site.QoSStats.Restored
	}
	if sc.cfg.CPUBound {
		r.CPURefused = int(sc.site.QoSStats.RefusedLeg[core.LegCPU])
		for _, ss := range sc.Servers {
			if cpu := ss.CPU; cpu != nil {
				r.DeadlineMisses += cpu.Stats.DeadlineMisses
			}
			// Worst-node load comes off the probe surface — the same
			// per-leg headrooms replica selection ranks by — rather than
			// per-package capacity getters.
			rep := sc.site.Probe(core.SessionSpec{CM: ss.CM, CPU: ss.CPU})
			if lr := rep.Leg(core.LegCPU); lr.Present {
				r.CPUReserved = max(r.CPUReserved, 1-lr.Headroom)
			}
			if lr := rep.Leg(core.LegDisk); lr.Present {
				r.DiskCommitted = max(r.DiskCommitted, 1-lr.Headroom)
			}
		}
	}
	return r
}
