//go:build !race

package sim

// handoffGrain is how many events of a window the cluster coordinator
// fires itself before it calls in the worker goroutines (see
// Cluster.window). Sixty-four events are some 25 µs of cluster-vod's
// work against the 5-10 µs of a handoff on a quiet two-core host;
// cluster-vod-p2's run phase takes 1.11 s at 16, 1.01 s at 64 and
// 1.15 s at 256 (every window fired by the coordinator), against
// 1.45 s when every window is handed off.
const handoffGrain int64 = 64
