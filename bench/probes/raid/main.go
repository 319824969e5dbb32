// Probe raid times one cluster-vod round window (3840 bytes) read off
// an array of cluster-vod's size: host time, and the heap bytes the
// stripe gather allocates to return it.
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

func main() {
	budget := probe.Budget()
	const segSize, nseg, window = 256 << 10, 80, 3840
	s := sim.New()
	arr := raid.New(s, disk.DefaultParams(), segSize, nseg)
	var off int64
	r := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			arr.Read(off, window, func(_ []byte, err error) { probe.Check(err) })
			s.Run()
			off = (off + window) % (segSize*nseg - window)
		}
	})
	probe.Emit("raid.probe_read_ns", "ns", r.NsPerOp)
	probe.Emit("raid.probe_read_bytes", "bytes", r.BytesPerOp)
}
