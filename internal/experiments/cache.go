package experiments

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/fileserver"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
)

// E15CachePolicy reproduces §5's caching argument: caching pays for
// ordinary file data and (especially) directories, but "caching video
// and audio is usually not a good idea ... by the time a user has seen,
// or an application has processed, a video to the end, the beginning
// has already been evicted from the (LRU) cache" — and admitting video
// to the cache evicts the data that *was* benefiting.
func E15CachePolicy() Result {
	res := Result{
		ID:    "E15",
		Title: "what to cache: files and directories yes, video no (§5)",
		Notes: "512 KB block cache; 320 KB file working set re-read 10x, interleaved with a 4 MB video streamed twice",
	}

	// --- (a) block cache: ordinary files vs continuous media ---------
	const segSize = 64 << 10
	const videoSize = 4 << 20
	const nFiles, fileSize = 40, 8 << 10
	run := func(cacheVideo bool) (fileHitRate float64, videoSecondPassHits int64) {
		s := sim.New()
		arr := raid.New(s, disk.DefaultParams(), segSize, 1024)
		cfg := lfs.DefaultConfig(segSize)
		cfg.CacheBlocks = 128 // 512 KB of 4 KB blocks
		cfg.CacheContinuous = cacheVideo
		fs := lfs.New(s, arr, cfg)

		var files []lfs.Pnode
		for i := 0; i < nFiles; i++ {
			pn := fs.Create(false)
			files = append(files, pn)
			if err := fs.Write(pn, 0, make([]byte, fileSize)); err != nil {
				panic(err)
			}
		}
		video := fs.Create(true)
		if err := fs.Write(video, 0, make([]byte, videoSize)); err != nil {
			panic(err)
		}
		fs.Sync(res.done)
		s.Run()

		read := func(pn lfs.Pnode, off int64, n int) {
			fs.Read(pn, off, n, func(_ []byte, err error) {
				if err != nil {
					panic(err)
				}
			})
			s.Run()
		}
		viewing := func() {
			// A viewing interleaves the desktop's file traffic with the
			// video stream, chunk by chunk — the situation the paper's
			// policy is about.
			const chunk = segSize
			passes := videoSize / chunk / 10
			var off int64
			for p := 0; p < 10; p++ {
				for _, pn := range files {
					read(pn, 0, fileSize)
				}
				for c := 0; c < passes; c++ {
					read(video, off, chunk)
					off += chunk
				}
			}
		}
		viewing()
		h0 := fs.Stats.MediaCacheHits
		viewing() // second viewing: could the cache have helped? (§5: no)
		videoSecondPassHits = fs.Stats.MediaCacheHits - h0
		fileHitRate = float64(fs.Stats.CacheHits) /
			float64(fs.Stats.CacheHits+fs.Stats.CacheMisses)
		return fileHitRate, videoSecondPassHits
	}
	hitPeg, _ := run(false)
	hitAll, videoHits := run(true)
	res.Addf("file-data hit rate, CM bypassed (Pegasus)", "caching yields substantial gains", "%s", fmtPct(hitPeg))
	res.Addf("file-data hit rate, CM cached (LRU)", "video evicts the working set", "%s", fmtPct(hitAll))
	res.Addf("video 2nd-viewing cache hits (CM cached)", "beginning already evicted", "%d blocks", videoHits)

	// --- (b) directory caching: semantics beat opaque data -----------
	const entries = 100
	const ops = 1000
	dirRun := func(policy fileserver.DirCachePolicy) (trips int64) {
		s := sim.New()
		ds := fileserver.NewDirServer(s)
		if err := ds.MkDir("/home"); err != nil {
			panic(err)
		}
		for i := 0; i < entries; i++ {
			if err := ds.Insert("/home", fmt.Sprintf("f%03d", i), lfs.Pnode(100+i)); err != nil {
				panic(err)
			}
		}
		dc := fileserver.NewDirClient(s, ds, policy)
		rng := sim.NewRand(7)
		temp := 0
		for i := 0; i < ops; i++ {
			switch {
			case i%10 == 9: // 10% mutations, alternating insert/remove
				if temp%2 == 0 {
					dc.Insert("/home", fmt.Sprintf("tmp%04d", temp), lfs.Pnode(9000+temp), res.done)
				} else {
					dc.Remove("/home", fmt.Sprintf("tmp%04d", temp-1), res.done)
				}
				temp++
			default:
				name := fmt.Sprintf("f%03d", rng.Intn(entries))
				dc.Lookup("/home", name, func(_ lfs.Pnode, err error) { res.done(err) })
			}
			s.Run()
		}
		return dc.Stats.ServerTrips
	}
	none := dirRun(fileserver.NoDirCache)
	data := dirRun(fileserver.DataDirCache)
	semantic := dirRun(fileserver.SemanticDirCache)
	res.Addf(fmt.Sprintf("dir trips / %d ops, no cache", ops), "every lookup travels", "%d", none)
	res.Addf(fmt.Sprintf("dir trips / %d ops, data cache", ops), "mutations invalidate wholesale", "%d", data)
	res.Addf(fmt.Sprintf("dir trips / %d ops, semantic cache", ops), "cached more effectively (§5)", "%d", semantic)
	return res
}
