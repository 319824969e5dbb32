package loadgen

// The mode table: one row per scenario pegload can run. A Config names
// its modes with booleans (or, with none set, its Pattern); the table
// says which combinations exist, what each defaults, whether its titles
// live on disks, and which topology and workload pieces build it. Validate, Build, the scoreboard and pegload
// all read this one table.

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/atm"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// mode is one row of the table.
type mode struct {
	name string               // as the pegload flag spells it
	on   func(c *Config) bool // whether c asks for it
	with []string             // modes that may be asked for alongside it

	// defaults fill the Config fields left zero, ahead of the common
	// defaults; derive then computes the ones that depend on other
	// (by then defaulted) fields.
	defaults Config
	derive   func(c *Config)

	// storage reports whether titles are real files served off the
	// disk arrays (nil: never).
	storage func(c *Config) bool

	// Stored-title geometry: the log segment size, and the segments a
	// server's log gets beyond its titles'.
	segSize, logSlack int64

	// topology builds the site(s), viewers, servers and admitter;
	// workload admits the streams over them.
	topology, workload func(*Scenario)
}

func always(*Config) bool { return true }

// modes is ordered: the first row a Config asks for is its mode (it
// picks the pieces), any further row it asks for must be in that row's
// with list, and defaults apply in row order.
var modes = []mode{
	{
		// Switch-level multicast channels under viewer churn, sharing
		// links and disks with background VoD (live.go).
		name: "live", on: func(c *Config) bool { return c.Live },
		defaults: Config{
			Channels: 4, Workstations: 12, StreamsPerWS: 4, Servers: 1,
			Round: 500 * sim.Millisecond, TitleRounds: 2, ZipfS: 1.3, Seed: 1,
		},
		derive: func(c *Config) {
			setDefault(&c.VodStreams, c.Workstations/2)
			setDefault(&c.HoldMean, c.Duration/4)
		},
		storage: func(c *Config) bool { return c.VodStreams > 0 },
		segSize: 64 << 10, logSlack: 16,
		topology: (*Scenario).liveSite, workload: (*Scenario).liveChurn,
	},
	{
		// Federated sites, every viewer homed on site 0: requests the
		// home site cannot carry spill across the trunks.
		name: "metro", on: func(c *Config) bool { return c.Metro },
		with: []string{"from-storage"},
		defaults: Config{
			Sites: 3, Servers: 2, SiteReplicas: 2,
			Round: sim.Second, TitleRounds: 4, ZipfS: 1.3, Seed: 1,
		},
		derive: func(c *Config) {
			c.SiteReplicas = min(c.SiteReplicas, c.Sites)
			setDefault(&c.Titles, 2*c.Servers*c.Sites)
		},
		storage: always, segSize: 256 << 10, logSlack: 16,
		topology: (*Scenario).metroSites, workload: (*Scenario).zipfRequests,
	},
	{
		// One site of replica-selecting nodes under the vodsite
		// controller, Zipf requests, reactive replication.
		name: "cluster", on: func(c *Config) bool { return c.Cluster },
		with:     []string{"from-storage"},
		defaults: Config{Servers: 4, Round: sim.Second, TitleRounds: 4, ZipfS: 1.3, Seed: 1},
		derive:   func(c *Config) { setDefault(&c.Titles, 2*c.Servers) },
		storage:  always, segSize: 256 << 10, logSlack: 16,
		topology: (*Scenario).clusterSite, workload: (*Scenario).zipfRequests,
	},
	{
		// Unicast disk-backed sessions on nodes whose CPU is admission-
		// controlled and deliberately scarce. Small frames: the disks and
		// links barely notice a stream the CPU model finds expensive.
		name: "cpu-bound", on: func(c *Config) bool { return c.CPUBound },
		with: []string{"adaptive", "from-storage"},
		defaults: Config{
			Servers: 1, Round: 500 * sim.Millisecond, TitleRounds: 2, FrameBytes: 1200,
		},
		storage: always, segSize: 64 << 10, logSlack: 16,
		topology: (*Scenario).serverSite, workload: (*Scenario).unicastRequests,
	},
	{
		// Unicast disk-backed Adaptive sessions: degrade instead of
		// refuse, restore on mid-run releases. 64 KiB segments stripe into
		// 16 KiB per-disk chunks and frames are large, so a degraded
		// window really costs the disks less.
		name: "adaptive", on: func(c *Config) bool { return c.Adaptive },
		with: []string{"from-storage"},
		defaults: Config{
			Servers: 1, Round: 500 * sim.Millisecond, TitleRounds: 2, FrameBytes: 19200,
			ReleaseEvery: 3,
		},
		storage: always, segSize: 64 << 10, logSlack: 16,
		topology: (*Scenario).serverSite, workload: (*Scenario).unicastRequests,
	},
	{
		// VoD fan-out whose titles are real files read a round ahead.
		name: "from-storage", on: func(c *Config) bool { return c.FromStorage },
		defaults: Config{Round: 2 * sim.Second, TitleRounds: 4},
		storage:  always, segSize: 256 << 10, logSlack: 8,
		topology: (*Scenario).serverSite, workload: (*Scenario).fanoutStreams,
	},
	{
		// Synthesized VoD fan-out: the servers' toy arrays are never read.
		name: "vod", on: func(c *Config) bool { return c.plain() && c.Pattern == VoD },
		segSize: 64 << 10, logSlack: 64,
		topology: (*Scenario).serverSite, workload: (*Scenario).fanoutStreams,
	},
	{
		name: "mesh", on: func(c *Config) bool { return c.plain() && c.Pattern == Mesh },
		topology: (*Scenario).meshSite, workload: (*Scenario).meshStreams,
	},
}

// common are the defaults every mode shares, applied after its own.
var common = Config{
	Workstations: 8, StreamsPerWS: 4, FrameBytes: 960, FrameHz: 100,
	Duration: sim.Second, LinkRate: fabric.Rate100M,
}

// storageBacked reports whether a run of c in this mode serves titles
// off disk arrays — the one predicate behind the scoreboard's storage
// columns, its storage: line and pegload's disk-read check.
func (m *mode) storageBacked(c *Config) bool { return m.storage != nil && m.storage(c) }

// plain reports that no mode boolean is set, so Pattern picks the mode.
func (c *Config) plain() bool {
	return !(c.Live || c.Metro || c.Cluster || c.CPUBound || c.Adaptive || c.FromStorage)
}

// setDefault sets *p to v if it is still zero.
func setDefault[T comparable](p *T, v T) {
	var zero T
	if *p == zero {
		*p = v
	}
}

// fill copies every field c left zero from d.
func fill(c, d *Config) {
	cv, dv := reflect.ValueOf(c).Elem(), reflect.ValueOf(d).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if cv.Field(i).IsZero() {
			cv.Field(i).Set(dv.Field(i))
		}
	}
}

// resolve looks c's mode up in the table, rejects what no row accepts,
// and applies the defaults.
func (c *Config) resolve() (*mode, error) {
	var m *mode
	var asked []*mode
	for i := range modes {
		row := &modes[i]
		if !row.on(c) {
			continue
		}
		if m == nil {
			m = row
		} else if !slices.Contains(m.with, row.name) {
			return nil, fmt.Errorf("loadgen: %s cannot be combined with %s", m.name, row.name)
		}
		asked = append(asked, row)
	}
	switch {
	case m == nil:
		return nil, fmt.Errorf("loadgen: unknown pattern %v", c.Pattern)
	case c.Unicast && !c.Live:
		return nil, fmt.Errorf("loadgen: Unicast is the live ablation; it cannot run in %s mode", m.name)
	}
	if !c.plain() && !c.Live {
		c.Pattern = VoD // every disk-backed mode is a VoD site
	}
	for _, row := range asked {
		fill(c, &row.defaults)
	}
	fill(c, &common)
	setDefault(&c.Servers, (c.Workstations+15)/16)
	c.FrameBytes = max(c.FrameBytes, headerSize)
	// ~1.25x the wire demand of FrameBytes×FrameHz.
	wire := int64(atm.CellsFor(c.FrameBytes)) * int64(atm.CellSize*8) * int64(c.FrameHz)
	setDefault(&c.PeakRate, wire*5/4)
	for _, row := range asked {
		if row.derive != nil {
			row.derive(c)
		}
	}
	return m, nil
}

// Validate reports whether some mode accepts c: the mode booleans name a
// combination the table has a row for, and Unicast only rides Live. It
// is the one validator — pegload prints its error, Build panics with it.
func (c Config) Validate() error {
	_, err := c.resolve()
	return err
}

// StorageBacked reports whether a run of c serves titles off the
// servers' disk arrays (false for a Config Validate rejects).
func (c Config) StorageBacked() bool {
	m, err := c.resolve()
	return err == nil && m.storageBacked(&c)
}
