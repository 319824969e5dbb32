// Probe disk times one read of a cluster-vod stream's stripe share (a
// 3840-byte round window over four data disks) through the queue, the
// mechanics model and the completion event.
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/disk"
	"repro/internal/sim"
)

func main() {
	budget := probe.Budget()
	const size, chunk = 5 << 20, 3840 / 4
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), size)
	var off int64
	r := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			d.Read(off, chunk, func(_ []byte, err error) { probe.Check(err) })
			s.Run()
			off = (off + 64<<10) % (size - chunk)
		}
	})
	probe.Emit("disk.probe_read_ns", "ns", r.NsPerOp)
}
