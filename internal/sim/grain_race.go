//go:build race

package sim

// Under the race detector every window with work in two shares is
// handed off, however small, so that partitions really do run
// concurrently in every package's -race tests.
const handoffGrain int64 = 0
