package loadgen

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// modeSetters are the ways a Config (or a pegload command line) asks
// for a mode.
var modeSetters = []struct {
	name string
	set  func(*Config)
}{
	{"mesh", func(c *Config) { c.Pattern = Mesh }},
	{"vod", func(c *Config) { c.Pattern = VoD }},
	{"from-storage", func(c *Config) { c.FromStorage = true }},
	{"adaptive", func(c *Config) { c.Adaptive = true }},
	{"cpu-bound", func(c *Config) { c.CPUBound = true }},
	{"cluster", func(c *Config) { c.Cluster = true }},
	{"metro", func(c *Config) { c.Metro = true }},
	{"live", func(c *Config) { c.Live = true }},
}

// buildPanic reports what Build(cfg) — and, if it builds, a short run —
// panics with ("" if nothing).
func buildPanic(cfg Config) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	Build(cfg).Run()
	return ""
}

// TestValidateAndBuildAgree walks every pair of modes, alone and with
// the kernel sharded: Build panics exactly where Validate errs, with
// Validate's text, and a Config Validate accepts builds and runs.
func TestValidateAndBuildAgree(t *testing.T) {
	// The pairs of distinct mode booleans the table has a row for.
	combine := map[string]bool{
		"from-storage+adaptive": true, "from-storage+cpu-bound": true,
		"from-storage+cluster": true, "from-storage+metro": true,
		"adaptive+cpu-bound": true,
	}
	for i, a := range modeSetters {
		for _, b := range modeSetters[i:] {
			for _, parts := range []int{0, 2} {
				cfg := Config{Workstations: 2, StreamsPerWS: 1, Duration: 50 * sim.Millisecond, Partitions: parts}
				a.set(&cfg)
				b.set(&cfg)
				name := fmt.Sprintf("%s+%s/partitions=%d", a.name, b.name, parts)
				want := ""
				if err := cfg.Validate(); err != nil {
					want = err.Error()
				}
				if got := buildPanic(cfg); got != want {
					t.Errorf("%s: Validate says %q, Build panics with %q", name, want, got)
				}
				// A pattern never conflicts (the booleans win over it); two
				// distinct booleans combine only where the table says so.
				if i >= 2 && a.name != b.name && parts == 0 && (want == "") != combine[a.name+"+"+b.name] {
					t.Errorf("%s: Validate says %q", name, want)
				}
			}
		}
	}
}

// TestValidateRejections pins the rules the two old validators
// disagreed on.
func TestValidateRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"live+from-storage", Config{Live: true, FromStorage: true}},
		{"unicast without live", Config{Unicast: true}},
		{"cluster+cpu-bound", Config{Cluster: true, CPUBound: true}},
		{"partitions on mesh", Config{Partitions: 2}},
		{"unknown pattern", Config{Pattern: 7}},
	} {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := (Config{Live: true, Unicast: true, Partitions: 2}).Validate(); err != nil {
		t.Errorf("sharded unicast live twin rejected: %v", err)
	}
}

// TestStorageBackedIsOnePredicate: the scoreboard's storage columns, its
// storage: line and the predicate pegload's -check reads agree — in
// particular for a plain cpu-bound run, whose proof is zero underruns.
func TestStorageBackedIsOnePredicate(t *testing.T) {
	for _, a := range modeSetters {
		cfg := Config{Workstations: 2, StreamsPerWS: 1, Duration: 600 * sim.Millisecond}
		a.set(&cfg)
		r := Build(cfg).Run()
		backed := r.Config.StorageBacked()
		if line := strings.Contains(r.String(), "\n  storage:"); line != backed {
			t.Errorf("%s: storage line printed = %v, StorageBacked = %v", a.name, line, backed)
		}
		if read := r.DiskBytesRead > 0; read != backed {
			t.Errorf("%s: disk bytes read = %d, StorageBacked = %v", a.name, r.DiskBytesRead, backed)
		}
		if want := a.name != "mesh" && a.name != "vod"; backed != want {
			t.Errorf("%s: StorageBacked = %v", a.name, backed)
		}
	}
	noVod := Config{Live: true, VodStreams: -1}
	if noVod.StorageBacked() {
		t.Error("live without background VoD claims to be storage-backed")
	}
}
