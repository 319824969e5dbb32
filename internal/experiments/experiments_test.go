package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The experiment harnesses double as integration tests: each builds a
// full system and runs a workload. These tests assert the claims the
// tables encode, not just that the harnesses produce output.

// run runs one harness and fails the test if the harness's own
// operations reported an error.
func run(t *testing.T, harness func() experiments.Result) experiments.Result {
	t.Helper()
	r := harness()
	if r.Err != nil {
		t.Fatalf("%s failed: %v", r.ID, r.Err)
	}
	return r
}

func findRow(t *testing.T, r experiments.Result, name string) experiments.Row {
	t.Helper()
	for _, row := range r.Rows {
		if row.Name == name {
			return row
		}
	}
	t.Fatalf("%s: no row %q in %v", r.ID, name, r.Rows)
	return experiments.Row{}
}

func TestE4SchedulingClaims(t *testing.T) {
	r := run(t, experiments.E4Scheduling)
	edf := findRow(t, r, "EDF over shares (Nemesis)")
	if !strings.Contains(edf.Measured, "audio miss 0.0%") ||
		!strings.Contains(edf.Measured, "video miss 0.0%") {
		t.Fatalf("EDF missed deadlines: %s", edf.Measured)
	}
	rr := findRow(t, r, "round-robin (timesharing)")
	if strings.Contains(rr.Measured, "audio miss 0.0%") {
		t.Fatalf("round-robin met all deadlines: %s", rr.Measured)
	}
	prio := findRow(t, r, "greedy AV: batch share, priority")
	if prio.Measured != "0.0%" {
		t.Fatalf("priority did not starve batch: %s", prio.Measured)
	}
}

func TestE5EventClaims(t *testing.T) {
	r := run(t, experiments.E5Events)
	// Structural check: sync latency < async latency; async demux
	// throughput > sync. Parse the leading duration loosely.
	syncLat := findRow(t, r, "sync call latency").Measured
	asyncLat := findRow(t, r, "async call latency").Measured
	if syncLat == asyncLat {
		t.Fatalf("no latency difference: %s vs %s", syncLat, asyncLat)
	}
	if !strings.Contains(syncLat, "µs") {
		t.Fatalf("sync latency not µs-scale: %s", syncLat)
	}
}

func TestE7LadderOrdering(t *testing.T) {
	r := run(t, experiments.E7Invocation)
	ratio := findRow(t, r, "ladder ratio").Measured
	if !strings.HasPrefix(ratio, "1 : ") {
		t.Fatalf("ratio row malformed: %s", ratio)
	}
}

func TestE9StorageClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full storage harness in short mode")
	}
	r := run(t, experiments.E9SegmentIO)
	oh := findRow(t, r, "seek+rotation overhead").Measured
	if !strings.HasPrefix(oh, "5.") && !strings.HasPrefix(oh, "6.") &&
		!strings.HasPrefix(oh, "7.") && !strings.HasPrefix(oh, "8.") &&
		!strings.HasPrefix(oh, "9.") && !strings.HasPrefix(oh, "4.") {
		t.Fatalf("overhead out of the <10%% band: %s", oh)
	}
}

func TestE10CleanerFlatVsLinear(t *testing.T) {
	r := run(t, experiments.E10Cleaner)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Pegasus CPU identical across sizes; sprite scans grow.
	small, large := r.Rows[0].Measured, r.Rows[2].Measured
	pegSmall := small[:strings.Index(small, "|")]
	pegLarge := large[:strings.Index(large, "|")]
	if pegSmall != pegLarge {
		t.Fatalf("pegasus cost varied with size: %q vs %q", pegSmall, pegLarge)
	}
	if !strings.Contains(small, "scans 64") || !strings.Contains(large, "scans 1024") {
		t.Fatalf("sprite scan counts wrong: %s / %s", small, large)
	}
}

func TestE11WriteBehindSaves(t *testing.T) {
	r := run(t, experiments.E11WriteBuffering)
	row30 := findRow(t, r, "write-behind 30.000s").Measured
	if !strings.Contains(row30, "saved") {
		t.Fatalf("no savings reported: %s", row30)
	}
	if strings.Contains(row30, "(0% saved)") {
		t.Fatalf("write-behind saved nothing: %s", row30)
	}
}

func TestE12NothingLost(t *testing.T) {
	r := run(t, experiments.E12FaultTolerance)
	crash := findRow(t, r, "server crash + agent replay").Measured
	if !strings.HasPrefix(crash, "40/40") {
		t.Fatalf("files lost: %s", crash)
	}
	disk := findRow(t, r, "disk failure + parity").Measured
	if !strings.Contains(disk, "intact=true") {
		t.Fatalf("disk failure lost data: %s", disk)
	}
}

func TestE14ReloadCheaperAndCollisionFree(t *testing.T) {
	r := run(t, experiments.E14Relocation)
	cold := findRow(t, r, "cold load (full relocation)").Measured
	warm := findRow(t, r, "warm reload (cached, same VA)").Measured
	if cold == warm {
		t.Fatalf("reload no cheaper than cold load: %s", warm)
	}
	if !strings.Contains(warm, "µs") {
		t.Fatalf("warm reload not µs-scale: %s", warm)
	}
	coll := findRow(t, r, "collisions, 4096 images, 32-bit hash").Measured
	if !strings.HasPrefix(coll, "0 ") {
		t.Fatalf("32-bit hash collided: %s", coll)
	}
}

func TestE15CachePolicyClaims(t *testing.T) {
	r := run(t, experiments.E15CachePolicy)
	peg := findRow(t, r, "file-data hit rate, CM bypassed (Pegasus)").Measured
	all := findRow(t, r, "file-data hit rate, CM cached (LRU)").Measured
	if peg <= all { // "95.0%" vs "0.0%" compare fine lexically here
		t.Fatalf("bypass policy did not beat cache-all: %s vs %s", peg, all)
	}
	video := findRow(t, r, "video 2nd-viewing cache hits (CM cached)").Measured
	if video != "0 blocks" {
		t.Fatalf("video caching helped (%s); the paper says it cannot", video)
	}
	trips := func(name string) string {
		return findRow(t, r, "dir trips / 1000 ops, "+name).Measured
	}
	if trips("semantic cache") >= trips("data cache") {
		t.Fatalf("semantic cache not cheaper: %s vs %s",
			trips("semantic cache"), trips("data cache"))
	}
}

func TestE16ProtectionModes(t *testing.T) {
	r := run(t, experiments.E16PowerFailure)
	unprot := findRow(t, r, "unprotected").Measured
	if strings.HasPrefix(unprot, "40/40") {
		t.Fatalf("unprotected server lost nothing: %s", unprot)
	}
	for _, name := range []string{"UPS", "battery-backed RAM"} {
		row := findRow(t, r, name).Measured
		if !strings.HasPrefix(row, "40/40") {
			t.Fatalf("%s lost data: %s", name, row)
		}
	}
}

func TestE17TertiaryClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("tape-library harness in short mode")
	}
	r := run(t, experiments.E17TertiaryStorage)
	ratio := findRow(t, r, "data ingested vs disk capacity").Measured
	if !strings.Contains(ratio, "4.0x") && !strings.Contains(ratio, "4.1x") {
		t.Fatalf("capacity ratio unexpected: %s", ratio)
	}
	freed := findRow(t, r, "segments reclaimed by the cleaner").Measured
	if strings.HasPrefix(freed, "0 ") {
		t.Fatalf("cleaner reclaimed nothing: %s", freed)
	}
	penalty := findRow(t, r, "recall penalty").Measured
	if penalty == "" || penalty[0] == '0' {
		t.Fatalf("recall penalty implausible: %s", penalty)
	}
}

func TestE18AdmissionClaims(t *testing.T) {
	r := run(t, experiments.E18Admission)
	verdicts := findRow(t, r, "CBR admission verdicts").Measured
	if verdicts != "3 admitted, 2 refused" {
		t.Fatalf("verdicts = %s", verdicts)
	}
	late := findRow(t, r, "late audio blocks (5 ms budget)").Measured
	if !strings.HasPrefix(late, "on: 0, off: ") || strings.HasSuffix(late, "off: 0") {
		t.Fatalf("late blocks = %s; want none with admission, some without", late)
	}
	drops := findRow(t, r, "cells dropped at the port").Measured
	if !strings.HasPrefix(drops, "on: 0, off: ") || strings.HasSuffix(drops, "off: 0") {
		t.Fatalf("drops = %s", drops)
	}
}

func TestAllResultsHaveRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	for _, r := range experiments.All() {
		if r.ID == "" || r.Title == "" || len(r.Rows) == 0 {
			t.Fatalf("experiment %q incomplete", r.ID)
		}
		if r.Err != nil {
			t.Fatalf("%s failed: %v", r.ID, r.Err)
		}
		for _, row := range r.Rows {
			if row.Measured == "" || row.Measured == "FAILED" {
				t.Fatalf("%s row %q measured %q", r.ID, row.Name, row.Measured)
			}
		}
	}
}
