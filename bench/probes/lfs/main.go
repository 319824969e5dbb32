// Probe lfs times the log-structured layer at cluster-vod geometry: one
// round-window read (3840 bytes) of a stored continuous title, and the
// placement write of one 7680-byte title (Create + Write, a Sync and
// drain every 32 titles, a fresh array and log when this one fills —
// what site build does on every node).
package main

import (
	"repro/bench/internal/probe"
	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
)

const (
	segSize, nseg = 256 << 10, 80
	window        = 3840
	titleBytes    = 2 * window
	titles        = 32
)

func newFS(s *sim.Sim) *lfs.FS {
	return lfs.New(s, raid.New(s, disk.DefaultParams(), segSize, nseg), lfs.DefaultConfig(segSize))
}

func sync(s *sim.Sim, fs *lfs.FS) {
	fs.Sync(probe.Check)
	s.Run()
}

func main() {
	budget := probe.Budget()
	s := sim.New()
	title := make([]byte, titleBytes)

	fs := newFS(s)
	var pns [titles]lfs.Pnode
	for i := range pns {
		pns[i] = fs.Create(true)
		probe.Check(fs.Write(pns[i], 0, title))
	}
	sync(s, fs)
	i := 0
	rd := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			fs.Read(pns[i%titles], int64(i/titles%2)*window, window, func(_ []byte, err error) { probe.Check(err) })
			s.Run()
			i++
		}
	})
	probe.Emit("lfs.probe_read_ns", "ns", rd.NsPerOp)
	probe.Emit("lfs.probe_read_bytes", "bytes", rd.BytesPerOp)

	wfs, written := newFS(s), 0
	wr := probe.Measure(budget, func(n int) {
		for ; n > 0; n-- {
			if wfs.FreeSegments() < 4 {
				sync(s, wfs)
				wfs = newFS(s)
			}
			probe.Check(wfs.Write(wfs.Create(true), 0, title))
			if written++; written%32 == 0 {
				sync(s, wfs)
			}
		}
	})
	probe.Emit("lfs.probe_write_ns", "ns", wr.NsPerOp)
}
