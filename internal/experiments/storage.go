package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/disk"
	"repro/internal/fileserver"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/trace"
)

const segMB = 1 << 20

// E9SegmentIO reproduces §5's disk arithmetic: whole-segment transfers
// keep seek+rotation overhead under 10%, so one disk sustains >= 5 MB/s
// and the four-disk stripe ~20 MB/s — more than the 100 Mb/s ATM network
// can carry ("a mere ... just over 10 MB/s").
func E9SegmentIO() Result {
	res := Result{
		ID:    "E9",
		Title: "whole-segment I/O on the striped log (§5)",
	}
	// One disk, scattered whole-segment writes.
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 512*segMB)
	seg := make([]byte, segMB) // given to the store many times over: never written again
	for i := 0; i < 64; i++ {
		off := int64((i*37)%256) * 2 * segMB
		d.Write(off, len(seg), seg, nil, func(error) {})
	}
	s.Run()
	overhead := float64(d.Stats.SeekTime+d.Stats.RotTime) / float64(d.Stats.BusyTime())
	diskRate := float64(d.Stats.BytesWrite) / d.Stats.BusyTime().Seconds() / 1e6

	// The same volume as 4 KB random updates (the update-in-place
	// pathology the log avoids).
	s2 := sim.New()
	d2 := disk.New(s2, disk.DefaultParams(), 512*segMB)
	small := make([]byte, 4096)
	for i := 0; i < 64*256; i++ {
		off := int64((i*2654435761)%(256*segMB)) &^ 4095
		d2.Write(off, len(small), small, nil, func(error) {})
	}
	s2.Run()
	smallRate := float64(d2.Stats.BytesWrite) / d2.Stats.BusyTime().Seconds() / 1e6

	// Striped array: 32 segments.
	s3 := sim.New()
	arr := raid.New(s3, disk.DefaultParams(), segMB, 64)
	start := s3.Now()
	for i := int64(0); i < 32; i++ {
		arr.WriteSegment(i, seg, nil, func(error) {})
	}
	s3.Run()
	arrRate := float64(32*segMB) / (s3.Now() - start).Seconds() / 1e6

	netRate := 100e6 / 8 * 48 / 53 / 1e6 // AAL5 payload over 100 Mb/s

	res.Addf("seek+rotation overhead", "< 10% for whole segments", "%s", fmtPct(overhead))
	res.Addf("one disk, 1 MB segments", ">= 5 MB/s", "%.2f MB/s", diskRate)
	res.Addf("one disk, 4 KB random", "seek-bound (the log avoids this)", "%.2f MB/s", smallRate)
	res.Addf("4+1 stripe, full segments", "~20 MB/s total", "%.2f MB/s", arrRate)
	res.Addf("ATM network ceiling", "\"just over 10 MB/s\"", "%.2f MB/s payload", netRate)
	return res
}

// E10Cleaner reproduces §5's cleaning complexity claim: the garbage-file
// cleaner's cost depends only on the segments to clean and the amount of
// garbage, while a Sprite-style cleaner scans the segment usage table,
// whose size grows with the file system.
func E10Cleaner() Result {
	res := Result{
		ID:    "E10",
		Title: "cleaning cost vs file-system size (§5)",
		Notes: "identical garbage (4 dead segments of 8 written) at every size",
	}
	const segSize = 64 << 10
	run := func(nseg int64, pegasus bool) lfs.CleanStats {
		s := sim.New()
		arr := raid.New(s, disk.DefaultParams(), segSize, nseg)
		fs := lfs.New(s, arr, lfs.DefaultConfig(segSize))
		var pns []lfs.Pnode
		for i := 0; i < 8; i++ {
			pn := fs.Create(false)
			pns = append(pns, pn)
			if err := fs.Write(pn, 0, bytes.Repeat([]byte{byte(i)}, segSize-1024)); err != nil {
				panic(err)
			}
		}
		fs.Sync(func(error) {})
		s.Run()
		for i := 0; i < 4; i++ {
			if err := fs.Delete(pns[i]); err != nil {
				panic(err)
			}
		}
		fs.Sync(func(error) {})
		s.Run()
		var cs lfs.CleanStats
		if pegasus {
			fs.CleanPegasus(func(c lfs.CleanStats, err error) { cs = c })
		} else {
			fs.CleanSprite(8, func(c lfs.CleanStats, err error) { cs = c })
		}
		s.Run()
		return cs
	}
	for _, nseg := range []int64{64, 256, 1024} {
		peg := run(nseg, true)
		spr := run(nseg, false)
		res.Addf(fmt.Sprintf("FS = %4d segments", nseg),
			"Pegasus flat, Sprite grows",
			"pegasus CPU %v (entries %d) | sprite CPU %v (scans %d)",
			peg.CPUTime, peg.EntriesProcessed, spr.CPUTime, spr.ScanEntries)
	}
	return res
}

// E11WriteBuffering reproduces §5's delayed-write argument: with the
// Baker measurement that 70% of files die within 30 seconds, holding
// writes in (safe, two-copy) memory for 30 s eliminates most log traffic
// and most garbage creation.
func E11WriteBuffering() Result {
	res := Result{
		ID:    "E11",
		Title: "delayed writes on a Baker-91 workload (§5)",
		Notes: "500 synthetic files, 70% dying within 30 s; identical op schedule per row",
	}
	run := func(delay sim.Duration) (logBytes, garbageEntries, absorbed int64) {
		s := sim.New()
		arr := raid.New(s, disk.DefaultParams(), 64<<10, 1024)
		fs := lfs.New(s, arr, lfs.DefaultConfig(64<<10))
		sv := fileserver.NewServer(s, fs)
		sv.WriteDelay = delay
		ops := trace.Baker(sim.NewRand(4242), trace.DefaultBaker(500))
		for _, op := range ops {
			op := op
			s.At(op.At, func() {
				switch op.Kind {
				case trace.OpCreate:
					sv.Create(op.Name, false)
				case trace.OpWrite:
					if !sv.Exists(op.Name) {
						sv.Create(op.Name, false)
					}
					sv.Write(op.Name, 0, make([]byte, op.Size))
				case trace.OpDelete:
					if sv.Exists(op.Name) {
						sv.Delete(op.Name)
					}
				}
			})
		}
		s.Run()
		return fs.Stats.BytesAppended, fs.Stats.GarbageEntries, sv.Stats.AbsorbedBytes
	}
	wtLog, wtGarb, _ := run(0)
	res.Addf("write-through", "every byte hits the log",
		"%.1f MB logged, %d garbage entries", float64(wtLog)/1e6, wtGarb)
	for _, delay := range []sim.Duration{5 * sim.Second, 30 * sim.Second} {
		log, garb, abs := run(delay)
		res.Addf(fmt.Sprintf("write-behind %v", delay),
			"~70% of data never reaches disk at 30s",
			"%.1f MB logged (%.0f%% saved), %d garbage entries, %.1f MB absorbed",
			float64(log)/1e6, 100*(1-float64(log)/float64(wtLog)), garb, float64(abs)/1e6)
	}
	return res
}

// E12FaultTolerance reproduces §5's reliability claims: no data loss
// under any single-component failure — server crash (client agent
// replays) or disk failure (parity reconstructs).
func E12FaultTolerance() Result {
	res := Result{
		ID:    "E12",
		Title: "single-component failures lose nothing (§5)",
	}
	// (a) Server crash with unflushed data.
	s := sim.New()
	arr := raid.New(s, disk.DefaultParams(), 64<<10, 256)
	fs := lfs.New(s, arr, lfs.DefaultConfig(64<<10))
	sv := fileserver.NewServer(s, fs)
	sv.WriteDelay = 30 * sim.Second
	ag := fileserver.NewAgent(s, sv)

	content := map[string][]byte{}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("/f%d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 4000+i*137)
		content[name] = data
		ag.Create(name, false, func(error) {})
		ag.Write(name, 0, data, func(error) {})
	}
	s.RunUntil(sim.Second)
	// Flush half the work, then crash with the rest still buffered.
	sv.Flush(func(error) {})
	s.Run()
	for i := 20; i < 40; i++ {
		name := fmt.Sprintf("/f%d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 4000+i*137)
		content[name] = data
		ag.Create(name, false, func(error) {})
		ag.Write(name, 0, data, func(error) {})
	}
	s.RunUntil(2 * sim.Second)
	sv.Crash()
	sv.Recover(func(error) {})
	s.Run()
	ag.Replay(func(error) {})
	s.Run()
	intact := 0
	for name, want := range content {
		var got []byte
		sv.Read(name, 0, len(want), func(b []byte, err error) { got = b })
		s.Run()
		if bytes.Equal(got, want) {
			intact++
		}
	}
	res.Addf("server crash + agent replay", "acknowledged writes survive",
		"%d/%d files intact, %d entries replayed, %.1f KB re-sent",
		intact, len(content), ag.Stats.Replays, float64(ag.Stats.ReplayBytes)/1e3)

	// (b) Disk failure under reads.
	s2 := sim.New()
	arr2 := raid.New(s2, disk.DefaultParams(), 64<<10, 256)
	fs2 := lfs.New(s2, arr2, lfs.DefaultConfig(64<<10))
	sv2 := fileserver.NewServer(s2, fs2)
	data := bytes.Repeat([]byte{0x5A}, 200_000)
	sv2.Create("/big", false)
	sv2.Write("/big", 0, data)
	sv2.Flush(func(error) {})
	s2.Run()
	arr2.FailDisk(1)
	var got []byte
	sv2.Read("/big", 0, len(data), func(b []byte, err error) { got = b })
	s2.Run()
	ok := bytes.Equal(got, data)
	res.Addf("disk failure + parity", "reads continue degraded",
		"intact=%v, %d chunk reconstructions", ok, arr2.Stats.Reconstructions)

	// (c) Rebuild onto a replacement disk.
	t0 := s2.Now()
	arr2.Rebuild(1, func(error) {})
	s2.Run()
	res.Addf("array rebuild", "straightforward with RAID",
		"%.1f MB reconstructed in %v", float64(arr2.Stats.RebuildBytes)/1e6, s2.Now()-t0)
	return res
}
