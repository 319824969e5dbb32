package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// --- a protobuf writer just large enough to build a profile.proto ---

type protoMsg []byte

func (m *protoMsg) varint(v uint64) {
	for v >= 0x80 {
		*m = append(*m, byte(v)|0x80)
		v >>= 7
	}
	*m = append(*m, byte(v))
}

func (m *protoMsg) num(field int, v uint64) {
	m.varint(uint64(field) << 3)
	m.varint(v)
}

func (m *protoMsg) bytes(field int, b []byte) {
	m.varint(uint64(field)<<3 | 2)
	m.varint(uint64(len(b)))
	*m = append(*m, b...)
}

func (m *protoMsg) packed(field int, vs ...uint64) {
	var p protoMsg
	for _, v := range vs {
		p.varint(v)
	}
	m.bytes(field, p)
}

// testProfile builds a CPU profile whose locations are named by
// function; a location written "a<b" holds a inlined into b.
type testProfile struct {
	msg   protoMsg
	strs  map[string]uint64
	order []string
	locs  map[string]uint64
}

func newTestProfile(sampleTypes ...string) *testProfile {
	p := &testProfile{strs: map[string]uint64{}, locs: map[string]uint64{}}
	p.str("")
	for _, t := range sampleTypes {
		var vt protoMsg
		vt.num(1, p.str(t))
		vt.num(2, p.str("unit"))
		p.msg.bytes(1, vt)
	}
	return p
}

func (p *testProfile) str(s string) uint64 {
	if i, ok := p.strs[s]; ok {
		return i
	}
	p.strs[s] = uint64(len(p.order))
	p.order = append(p.order, s)
	return p.strs[s]
}

func (p *testProfile) loc(name string) uint64 {
	if id, ok := p.locs[name]; ok {
		return id
	}
	id := uint64(len(p.locs) + 1)
	p.locs[name] = id
	var loc protoMsg
	loc.num(1, id)
	loc.num(3, 0x1000+id) // address: a field the reader must skip
	for _, fn := range strings.Split(name, "<") {
		fid := p.str(fn) + 100
		var f protoMsg
		f.num(1, fid)
		f.num(2, p.str(fn))
		p.msg.bytes(5, f)
		var line protoMsg
		line.num(1, fid)
		line.num(2, 42)
		loc.bytes(4, line)
	}
	p.msg.bytes(4, loc)
	return id
}

// sample adds one stack, leaf first.
func (p *testProfile) sample(values []uint64, stack ...string) {
	ids := make([]uint64, len(stack))
	for i, fn := range stack {
		ids[i] = p.loc(fn)
	}
	var s protoMsg
	s.packed(1, ids...)
	s.packed(2, values...)
	p.msg.bytes(2, s)
}

func (p *testProfile) parse(t *testing.T) *profile {
	t.Helper()
	msg := append(protoMsg(nil), p.msg...)
	for _, s := range p.order {
		msg.bytes(6, []byte(s))
	}
	msg.num(9, 12345) // time_nanos: skipped
	prof, err := parseProfile(protoBuf(msg))
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestFoldChargesLeafMostLayer(t *testing.T) {
	p := newTestProfile("samples", "cpu")
	// Runtime and standard-library leaves belong to the layer calling them.
	p.sample([]uint64{1, 10}, "runtime.memmove", "repro/internal/raid.(*Array).Read",
		"repro/internal/lfs.(*FS).Read", "repro/internal/sim.(*Sim).Run", "main.main")
	p.sample([]uint64{1, 20}, "hash/crc32.Update", "runtime.mallocgc<repro/internal/atm.Segment",
		"repro/internal/loadgen.(*source).emit")
	// The innermost inlined function of a location is the leaf.
	p.sample([]uint64{1, 5}, "repro/internal/stats.(*Sample).Add<repro/internal/loadgen.(*sink).HandleBurst")
	// A generic method, and a closure.
	p.sample([]uint64{1, 3}, "repro/internal/mcache.(*LRU[go.shape.string,go.shape.*uint8]).Get")
	p.sample([]uint64{1, 4}, "repro/internal/sim.(*Cluster).Run.func1")
	// A repo package that is not a listed layer is passed over for its caller.
	p.sample([]uint64{1, 7}, "repro/internal/sched.(*EDF).Pick", "repro/internal/core.(*NodeCPU).AdmitStream")
	// No repo frame at all: GC workers, the scheduler, pegload's main.
	p.sample([]uint64{1, 100}, "runtime.scanobject", "runtime.gcBgMarkWorker")
	p.sample([]uint64{1, 2}, "encoding/json.Marshal", "main.main")
	prof := p.parse(t)

	got, err := prof.fold("cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"raid": 10, "atm": 20, "stats": 5, "mcache": 3, "sim": 4, "core": 7, "runtime": 102}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold(cpu) = %v, want %v", got, want)
	}
	if sum(got) != 151 {
		t.Errorf("layers sum to %d, profile total is 151", sum(got))
	}
	if counts, err := prof.fold("samples"); err != nil || sum(counts) != 8 {
		t.Errorf("fold(samples) = %v, %v; want 8 samples in all", counts, err)
	}
	if _, err := prof.fold("alloc_space"); err == nil {
		t.Error("fold of a sample type the profile lacks succeeded")
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	p := newTestProfile("cpu")
	p.sample([]uint64{1}, "repro/internal/sim.(*Sim).Run")
	whole := p.msg
	for cut := 1; cut < len(whole); cut++ {
		// Any prefix either parses (it ended on a field boundary) or
		// errors; it must not panic.
		parseProfile(protoBuf(whole[:cut]))
	}
}

const scoreboardJSON = `{"config": {"Seed": 1}, "admitted": 500, "frames_delivered": 2000000,
 "latency_p99_ns": 1991962.9400000488, "round_overruns": 0,
 "wall_seconds": %s, "events_per_sec": %s, "cells_per_sec": %s}`

func TestDigestCoversSimulatedFieldsOnly(t *testing.T) {
	fill := func(doc string, v ...string) []byte {
		for _, x := range v {
			doc = strings.Replace(doc, "%s", x, 1)
		}
		return []byte(doc)
	}
	sb, a, err := parseScoreboard(fill(scoreboardJSON, "6.24", "2401755.13", "16812284.79"))
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := parseScoreboard(fill(scoreboardJSON, "7.5", "1.0", "2e7"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("digest moved with the host-time fields: %s vs %s", a, b)
	}
	if got := sb.num("wall_seconds"); got != 6.24 {
		t.Errorf("wall_seconds = %v: the parsed scoreboard must keep the host fields", got)
	}
	if got := sb.num("spilled"); got != 0 {
		t.Errorf("an omitted column reads %v, want 0", got)
	}
	moved := strings.Replace(scoreboardJSON, "1991962.9400000488", "1991962.9400000489", 1)
	if _, c, _ := parseScoreboard(fill(moved, "6.24", "2401755.13", "16812284.79")); c == a {
		t.Error("digest did not move with the last digit of a simulated field")
	}
	if _, _, err := parseScoreboard([]byte("pegload: check failed")); err == nil {
		t.Error("non-JSON output parsed as a scoreboard")
	}
}

func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		{nil, summary{}},
		{[]float64{3}, summary{3, 3, 3, 1}},
		{[]float64{5, 1, 3}, summary{3, 1, 5, 3}},
		{[]float64{4, 1, 3, 10}, summary{3.5, 1, 10, 4}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
	xs := []float64{2, 1}
	if summarize(xs); xs[0] != 2 {
		t.Error("summarize sorted its argument in place")
	}
}

func TestWorkCounts(t *testing.T) {
	var m metricsFile
	doc := `{"series": [
	 {"node": "site0", "subsystem": "admission", "name": "opened", "values": [1, 30]},
	 {"node": "site1", "subsystem": "admission", "name": "opened", "values": [1, 60]},
	 {"node": "site0", "subsystem": "admission", "name": "refused", "values": [0, 10]},
	 {"node": "site0", "subsystem": "admission", "name": "refused_trunk", "values": [0, 4]},
	 {"node": "metro", "subsystem": "admission", "name": "refused_trunk", "values": [0, 4]},
	 {"node": "metro", "subsystem": "sim", "name": "windows", "values": [5, 9]}]}`
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		t.Fatal(err)
	}
	sb, _, err := parseScoreboard([]byte(`{"events_fired": 7, "storage_bytes": 200, "disk_bytes_read": 50, "cache_hits": 3, "cache_misses": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	got := workCounts(sb, &m)
	for name, want := range map[string]float64{
		"sim.events": 7, "sim.windows": 9, "sim.cross_delivered": 0,
		"core.refused": 10, "core.refused_trunk": 4, "core.admit_ratio": 0.9,
		"disk.read_amplification": 0.25, "fileserver.cache_hit_ratio": 0.75,
		"metro.spilled": 0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	for _, c := range counts {
		if _, ok := got[c.Name]; !ok {
			t.Errorf("workCounts does not report %s", c.Name)
		}
	}
}

// --- BENCHMARK.json ---

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// manifest is BENCHMARK.json: exactly these keys.
type manifest struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
}

func wantManifest() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 20,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
}

func TestManifest(t *testing.T) {
	const path = "../BENCHMARK.json"
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of step with the tables in metrics.go and workloads.go; run go test -run TestManifest -update", path)
	}
}

// TestManifestWithinContract checks the tables against the limits the
// benchmark's contract sets on BENCHMARK.json.
func TestManifestWithinContract(t *testing.T) {
	var (
		m      = wantManifest()
		nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
		unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
		seen   = map[string]bool{}
	)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
		if w.twin != "" && findWorkload(w.twin) == nil {
			t.Errorf("workload %s: twin %q does not exist", w.Name, w.twin)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	var setup *metric
	for i, e := range m.EndToEnd {
		name(e.Name)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v, want within (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Errorf("no setup_s metric in seconds, lower is better: %+v", setup)
	}
	for _, e := range m.EndToEnd {
		if setup != nil && e.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
	for _, e := range append(m.EndToEnd, m.PerLayer...) {
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q is not 1-16 of [A-Za-z0-9_/%%.-]", e.Name, e.Unit)
		}
		if e.Better != lower && e.Better != higher {
			t.Errorf("%s: better %q", e.Name, e.Better)
		}
	}
	for _, p := range m.PerLayer {
		name(p.Name)
		if p.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", p.Name)
		}
	}
	for _, p := range probeMetrics {
		if _, err := os.Stat(filepath.Join("probes", p.layer, "main.go")); err != nil {
			t.Errorf("probe %s: %v", p.layer, err)
		}
	}
}

// --- the whole pipeline ---

// TestSmoke builds pegload and takes a 0.2 simulated-second fabric-mesh
// through everything an invocation does: warm-up, timed reps, traced and
// build-only runs, profile fold, work counts, every probe, trace.json,
// and the one-line result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pegload and fourteen probes")
	}
	w := findWorkload("fabric-mesh")
	defer func(s string) { w.seconds = s }(w.seconds)
	w.seconds = "0.2"

	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	err := realMain([]string{"-workload", "fabric-mesh", "-reps", "3", "-seconds", "2", "-out", out}, &stdout, &stderr)
	t.Log(stderr.String())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of output is not the result: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 6 {
		t.Errorf("correct %v, attempted %d, failed %d; want true, 6 (warm-up, 3 reps, traced, build-only), 0",
			res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer()...) {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (reported: %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
	for _, m := range endToEnd {
		if res.Metrics[m.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
		}
	}
	for _, p := range probeMetrics {
		for _, m := range p.metrics {
			if v := res.Metrics[m.Name].Value; v <= 0 && !strings.HasSuffix(m.Name, "_bytes") {
				t.Errorf("probe metric %s = %v: probe skipped?", m.Name, v)
			}
		}
	}
	if got := res.Metrics["sim_frames_delivered"].Value; got != 10000 {
		t.Errorf("sim_frames_delivered = %v, want 10000 (500 streams x 100 Hz x 0.2 s)", got)
	}
	// The heap fold closes by construction; on this workload the storage
	// stack must be idle.
	var alloc float64
	for _, l := range layers {
		alloc += res.Metrics[l+".alloc_bytes"].Value
	}
	if alloc <= 0 || res.Metrics["disk.alloc_bytes"].Value != 0 || res.Metrics["disk.bytes_read"].Value != 0 {
		t.Errorf("fold: %v bytes over all layers, disk %v; want > 0 and 0", alloc, res.Metrics["disk.alloc_bytes"].Value)
	}

	var tr trace
	raw, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for i, sp := range tr.Spans {
		names[sp.Name]++
		if sp.EndNS < sp.StartNS || sp.Parent >= i || (sp.Parent < 0) != (i == 0) {
			t.Errorf("span %d %+v: bad interval or parent", i, sp)
		}
		if sp.Name == "traced" && sp.Attrs["per_layer"] == nil {
			t.Error("the traced run's span carries no per-layer fold")
		}
	}
	for name, want := range map[string]int{"invocation": 1, "fabric-mesh": 1, "warm-up": 1, "rep": 3,
		"traced": 1, "build-only": 1, "setup": 6, "run-phase": 6, "probe sim": 1, "probe stats": 1} {
		if names[name] != want {
			t.Errorf("%d %q spans, want %d (all: %v)", names[name], name, want, names)
		}
	}
}

// TestProbeThatDoesNotBuildIsSkipped pins the isolation the probes are
// split into separate programs for.
func TestProbeThatDoesNotBuildIsSkipped(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go build")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	h := &harness{root: root, bin: t.TempDir(), stderr: &stderr}
	if _, err := h.runProbe("no-such-layer", "0.01"); err == nil || err.Error() != "build failed" {
		t.Errorf("runProbe of a missing package: %v, want build failed", err)
	}
}
