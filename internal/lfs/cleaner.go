package lfs

import (
	"sort"

	"repro/internal/sim"
)

// CleanStats reports one cleaning run, in the terms experiment E10
// compares: how much work depended on the garbage itself versus on the
// size of the file system.
type CleanStats struct {
	SegmentsCleaned  int
	BytesCopied      int64 // live data relocated
	BytesFreed       int64 // garbage reclaimed
	EntriesProcessed int   // garbage-file entries consumed (Pegasus)
	ScanEntries      int64 // usage-table entries examined (Sprite)
	CPUTime          sim.Duration
	Elapsed          sim.Duration
}

// CleanPegasus runs the paper's cleaner: read the garbage file up to the
// marker, sort its entries by segment, and make a single pass over
// exactly the segments containing garbage. Client operations may
// continue during cleaning; garbage appended after the marker is left
// for the next run. Its cost is a function of the garbage alone.
func (fs *FS) CleanPegasus(done func(CleanStats, error)) {
	start := fs.sim.Now()
	mark := len(fs.garbage)
	entries := append([]GarbageEntry(nil), fs.garbage[:mark]...)

	// Sort by segment: the single pass of the paper.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seg < entries[j].Seg })
	var targets []int64
	for _, e := range entries {
		st, ok := fs.segs[e.Seg]
		if !ok || !st.onDisk {
			continue
		}
		if len(targets) == 0 || targets[len(targets)-1] != e.Seg {
			targets = append(targets, e.Seg)
		}
	}

	stats := CleanStats{EntriesProcessed: mark}
	stats.CPUTime = fs.cfg.EntryCost * sim.Duration(mark)
	fs.Stats.CleanerRuns++

	fin := func(err error) {
		// Truncate the processed prefix of the garbage file; entries
		// appended during cleaning stay (the marker discipline of §5).
		fs.garbage = append([]GarbageEntry(nil), fs.garbage[mark:]...)
		stats.Elapsed = fs.sim.Now() - start
		done(stats, err)
	}
	// Charge the CPU cost, then walk the target segments.
	fs.sim.After(stats.CPUTime, func() {
		fs.cleanSegments(targets, &stats, fin)
	})
}

// CleanSprite is the baseline this design replaces: scan the whole
// segment-usage table (cost proportional to the file-system size),
// choose the best cost-benefit segments, clean those. The copying is
// identical; only target selection differs.
func (fs *FS) CleanSprite(maxSegs int, done func(CleanStats, error)) {
	start := fs.sim.Now()
	stats := CleanStats{ScanEntries: fs.arr.Segments()}
	stats.CPUTime = fs.cfg.ScanCost * sim.Duration(fs.arr.Segments())
	fs.Stats.CleanerRuns++
	fs.Stats.CleanerScanWork += stats.ScanEntries

	type cand struct {
		id      int64
		benefit float64
	}
	var cands []cand
	for id, st := range fs.segs {
		if !st.onDisk || st.dataBytes == 0 {
			continue
		}
		dead := st.dataBytes - st.live
		if dead <= 0 {
			continue
		}
		utilisation := float64(st.live) / float64(fs.cfg.SegSize)
		cands = append(cands, cand{id: id, benefit: (1 - utilisation) / (1 + utilisation)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].benefit != cands[j].benefit {
			return cands[i].benefit > cands[j].benefit
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > maxSegs {
		cands = cands[:maxSegs]
	}
	targets := make([]int64, len(cands))
	for i, c := range cands {
		targets[i] = c.id
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	fin := func(err error) {
		// Sprite keeps no garbage file; ours would grow without bound,
		// so drop entries for segments that no longer exist.
		kept := fs.garbage[:0]
		for _, e := range fs.garbage {
			if _, ok := fs.segs[e.Seg]; ok {
				kept = append(kept, e)
			}
		}
		fs.garbage = kept
		stats.Elapsed = fs.sim.Now() - start
		done(stats, err)
	}
	fs.sim.After(stats.CPUTime, func() {
		fs.cleanSegments(targets, &stats, fin)
	})
}

// cleanSegments processes targets one at a time: read the segment,
// copy its live data to the log head, free it.
func (fs *FS) cleanSegments(targets []int64, stats *CleanStats, done func(error)) {
	if len(targets) == 0 {
		done(nil)
		return
	}
	id := targets[0]
	rest := targets[1:]
	st, ok := fs.segs[id]
	if !ok || !st.onDisk {
		fs.cleanSegments(rest, stats, done)
		return
	}
	fs.arr.ReadSegment(id, func(buf []byte, err error) {
		if err != nil {
			done(err)
			return
		}
		// Liveness is judged against the summary the segment itself
		// carries: the in-memory copy is empty for segments restored
		// from a checkpoint, but the on-disk summary is authoritative.
		entries, _, _, ok := parseSummary(buf)
		if !ok {
			// No valid summary: never free what we cannot account for.
			fs.cleanSegments(rest, stats, done)
			return
		}
		if err := fs.evacuate(st, entries, buf, stats); err != nil {
			done(err)
			return
		}
		fs.freeSegment(st, stats)
		stats.SegmentsCleaned++
		fs.cleanSegments(rest, stats, done)
	})
}

// evacuate copies every still-live byte of the segment to the log head.
// Liveness is decided against the current pnode map: a summary entry's
// bytes are live exactly where an extent still points at them.
func (fs *FS) evacuate(st *segState, entries []summaryEntry, buf []byte, stats *CleanStats) error {
	base := fs.segBase(st.id)
	// Phase 1: decide liveness against the current extent maps. The
	// decision must complete before any relocation, because relocation
	// rewrites the very extent slices being examined.
	type piece struct {
		pi      *pnodeInfo
		fileOff int64
		data    []byte
	}
	var live []piece
	for _, e := range entries {
		if e.kind != entData {
			continue
		}
		pi, ok := fs.pnodes[e.pn]
		if !ok {
			continue // whole entry dead: file deleted
		}
		for _, x := range pi.extents {
			lo := max64(x.FileOff, e.fileOff)
			hi := min64(x.FileOff+x.Len, e.fileOff+int64(e.length))
			if lo >= hi {
				continue
			}
			entryAddr := base + int64(e.segOff) + (lo - e.fileOff)
			extentAddr := x.Addr + (lo - x.FileOff)
			if entryAddr != extentAddr {
				continue // superseded by a newer copy elsewhere
			}
			live = append(live, piece{pi: pi, fileOff: lo, data: buf[entryAddr-base : entryAddr-base+(hi-lo)]})
		}
	}
	// Phase 2: copy to the log head.
	for _, p := range live {
		if err := fs.relocate(p.pi, p.fileOff, p.data); err != nil {
			return err
		}
		stats.BytesCopied += int64(len(p.data))
		fs.Stats.CleanerCopied += int64(len(p.data))
	}
	return nil
}

// relocate appends live bytes at the log head and repoints the file's
// extents — an address change, not a logical overwrite, so no garbage
// is generated (the donor segment is about to be freed wholesale). data is
// a fragment of a transient whole-segment read and is copied, never
// borrowed: a small survivor must not keep the whole read buffer alive.
func (fs *FS) relocate(pi *pnodeInfo, fileOff int64, data []byte) error {
	return fs.place(pi, fileOff, data, false, func(off, addr, n int64) { fs.repoint(pi, off, n, addr) })
}

// repoint rewrites the address of [fileOff, fileOff+n) in the extent
// map, splitting extents as needed, without generating garbage.
func (fs *FS) repoint(pi *pnodeInfo, fileOff, n, newAddr int64) {
	var out []Extent
	for _, e := range pi.extents {
		if e.FileOff+e.Len <= fileOff || e.FileOff >= fileOff+n {
			out = append(out, e)
			continue
		}
		if e.FileOff < fileOff {
			out = append(out, Extent{FileOff: e.FileOff, Addr: e.Addr, Len: fileOff - e.FileOff})
		}
		if end := e.FileOff + e.Len; end > fileOff+n {
			cut := fileOff + n - e.FileOff
			out = append(out, Extent{FileOff: fileOff + n, Addr: e.Addr + cut, Len: end - (fileOff + n)})
		}
	}
	out = append(out, Extent{FileOff: fileOff, Addr: newAddr, Len: n})
	sort.Slice(out, func(i, j int) bool { return out[i].FileOff < out[j].FileOff })
	merged := out[:0]
	for _, e := range out {
		if m := len(merged); m > 0 {
			p := &merged[m-1]
			if p.FileOff+p.Len == e.FileOff && p.Addr+p.Len == e.Addr {
				p.Len += e.Len
				continue
			}
		}
		merged = append(merged, e)
	}
	pi.extents = merged
}

// freeSegment returns a cleaned segment to the free pool.
func (fs *FS) freeSegment(st *segState, stats *CleanStats) {
	dead := st.dataBytes - st.live
	if dead > 0 {
		fs.Stats.GarbageBytes -= dead
		stats.BytesFreed += dead
	}
	// The cache is keyed by file offset, not disk address, so live data
	// relocated out of this segment stays cached; nothing to invalidate.
	delete(fs.segs, st.id)
	fs.freeSegs = append(fs.freeSegs, st.id)
	fs.Stats.SegmentsFreed++
}
