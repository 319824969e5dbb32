package main

// The benchmark's metric tables. BENCHMARK.json at the repo root lists
// the same names, units, directions and bounds; TestManifest compares the
// two (and rewrites the file with -update).

// metric is one row of BENCHMARK.json. Bound is set for end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// lo and hi are per-layer rows: no bound.
func lo(name, unit string) metric { return metric{Name: name, Unit: unit, Better: lower} }
func hi(name, unit string) metric { return metric{Name: name, Unit: unit, Better: higher} }

// endToEnd is what someone running pegload sees. Host times are medians
// over the timed reps of one invocation.
//
// Bounds follow the spread measured over ten invocations with ten seeds
// (BASELINE.md), at three times the widest workload's and no more than
// the contract's 25%. cluster-vod-p2 sets the four time bounds: its
// per-window channel handoffs make it sensitive to scheduler latency
// (9-11% between invocations, where the other workloads stay within 3%),
// and a bound is per metric, not per workload.
//
// The sim_* rows are simulated, identical on every rep of a seed (the
// digest check enforces it); their bounds are not zero only because the
// contract compares medians over different seeds, and on metro-flash the
// admitted population moves by a few percent with the seed.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"run_wall_s", "s", lower, 0.25},
	{"total_wall_s", "s", lower, 0.25},
	{"host_ns_per_event", "ns", lower, 0.25},
	{"cpu_user_s", "s", lower, 0.25},
	{"max_rss_bytes", "bytes", lower, 0.10},
	{"alloc_bytes", "bytes", lower, 0.10},
	{"sim_admitted", "sessions", higher, 0.12},
	{"sim_latency_p99_ns", "sim_ns", lower, 0.25},
	{"sim_frames_delivered", "frames", higher, 0.10},
}

// layers are the module names the profile fold charges samples to, plus
// "runtime" for samples with no frame in any of them (GC workers, the
// scheduler, process start).
var layers = []string{
	"sim", "atm", "fabric", "devices", "netsig", "core", "fileserver", "mcache", "lfs",
	"raid", "disk", "vodsite", "metro", "telemetry", "stats", "loadgen", "runtime",
}

// counts are the work counts read off the scoreboard and -metrics-out,
// exact per seed.
var counts = []metric{
	lo("sim.events", "count"),
	lo("sim.windows", "count"),
	lo("sim.barrier_stalls", "count"),
	lo("sim.cross_delivered", "count"),
	hi("atm.cells", "count"),
	hi("loadgen.frames_sent", "count"),
	hi("netsig.circuits_established", "count"),
	lo("netsig.circuits_refused", "count"),
	lo("core.refused", "count"),
	lo("core.refused_link", "count"),
	lo("core.refused_uplink", "count"),
	lo("core.refused_disk", "count"),
	lo("core.refused_trunk", "count"),
	hi("core.admit_ratio", "ratio"),
	hi("fileserver.storage_bytes", "bytes"),
	hi("fileserver.cache_hits", "count"),
	hi("fileserver.cache_hit_ratio", "ratio"),
	hi("fileserver.cache_bytes_served", "bytes"),
	lo("fileserver.cache_demotions", "count"),
	lo("disk.bytes_read", "bytes"),
	lo("disk.read_amplification", "ratio"),
	lo("vodsite.storage_refused", "count"),
	hi("vodsite.failover_recovered", "count"),
	hi("metro.spilled", "count"),
	lo("metro.trunk_refused", "count"),
	lo("metro.catalog_syncs", "count"),
	lo("metro.cross_site_copies", "count"),
	hi("metro.site_recovered", "count"),
}

// probeMetrics maps each probe program under probes/ to the metrics it
// must print.
var probeMetrics = []struct {
	layer   string
	metrics []metric
}{
	{"sim", []metric{
		lo("sim.probe_event_ns", "ns"),
		lo("sim.probe_event_p2_ns", "ns")}},
	{"atm", []metric{
		lo("atm.probe_segment_ns_per_cell", "ns/cell"),
		lo("atm.probe_segment_bytes_per_cell", "bytes/cell")}},
	{"fabric", []metric{
		lo("fabric.probe_burst_ns", "ns"),
		lo("fabric.probe_mcast_ns", "ns")}},
	{"netsig", []metric{
		lo("netsig.probe_establish_ns", "ns")}},
	{"disk", []metric{
		lo("disk.probe_read_ns", "ns")}},
	{"raid", []metric{
		lo("raid.probe_read_ns", "ns"),
		lo("raid.probe_read_bytes", "bytes")}},
	{"lfs", []metric{
		lo("lfs.probe_read_ns", "ns"),
		lo("lfs.probe_read_bytes", "bytes"),
		lo("lfs.probe_write_ns", "ns")}},
	{"fileserver", []metric{
		lo("fileserver.probe_round_ns_per_stream", "ns/stream"),
		lo("fileserver.probe_cache_hit_ns", "ns"),
		lo("fileserver.probe_cache_hit_bytes", "bytes")}},
	{"mcache", []metric{
		lo("mcache.probe_put_get_ns", "ns")}},
	{"core", []metric{
		lo("core.probe_open_ns", "ns"),
		lo("core.probe_open_bytes", "bytes"),
		lo("core.probe_probe_ns", "ns"),
		lo("core.probe_renegotiate_ns", "ns")}},
	{"vodsite", []metric{
		lo("vodsite.probe_admit_ns", "ns")}},
	{"metro", []metric{
		lo("metro.probe_spill_open_ns", "ns"),
		lo("metro.probe_catalog_sync_ns", "ns")}},
	{"telemetry", []metric{
		lo("telemetry.probe_counter_ns", "ns")}},
	{"stats", []metric{
		lo("stats.probe_sample_add_ns", "ns")}},
}

// perLayer lists every per-layer metric in the order it is printed: the
// profile fold of the traced and build-only runs, the trace's own
// accounting, the work counts, the probes.
func perLayer() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, lo(l+".cpu_s", "s"), lo(l+".alloc_bytes", "bytes"), lo(l+".setup_cpu_s", "s"))
	}
	ms = append(ms,
		lo("runtime.cpu_sys_s", "s"),
		lo("trace.overhead_frac", "frac"),
		hi("trace.cpu_coverage", "frac"))
	ms = append(ms, counts...)
	for _, p := range probeMetrics {
		ms = append(ms, p.metrics...)
	}
	return ms
}
