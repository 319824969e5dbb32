// Package lfs is the core layer of the Pegasus storage service (§5): a
// log-structured store in the style of Sprite LFS, redesigned as the
// paper describes for very large (multi-terabyte) systems:
//
//   - the log is cut into megabyte segments, each striped with parity
//     across the disk array (package raid), so whole-segment writes are
//     full-stripe writes;
//   - continuous-media data is collected in separate segments from
//     normal file data, while its metadata joins the normal log;
//   - every overwrite or delete appends an entry describing the hole to
//     a garbage file, so cleaning cost depends only on the number of
//     segments to clean and the amount of garbage — never on the size
//     of the file system (the Pegasus cleaner); a Sprite-style
//     cost-benefit cleaner that scans the whole segment-usage table is
//     provided as the baseline it replaces;
//   - recovery = newest valid checkpoint + roll-forward over segment
//     summaries in log-sequence order.
//
// Files are identified by pnode number; naming is the service stacks'
// business (package fileserver).
package lfs

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/raid"
	"repro/internal/sim"
)

// BlockSize is the cache granule for ordinary file data.
const BlockSize = 4096

// Pnode identifies a file in the core layer.
type Pnode uint32

// FirstPnode is the first allocatable file id (lower ids are reserved
// for service-stack use such as directories).
const FirstPnode Pnode = 8

// Errors returned by the core layer.
var (
	ErrNoSpace   = errors.New("lfs: no free segments")
	ErrNoFile    = errors.New("lfs: no such pnode")
	ErrTooLarge  = errors.New("lfs: write exceeds segment capacity")
	ErrCorrupt   = errors.New("lfs: corrupt on-disk structure")
	ErrBadExtent = errors.New("lfs: bad extent")
)

// Extent maps a contiguous file range to a linear array address.
type Extent struct {
	FileOff int64
	Addr    int64
	Len     int64
}

// pnodeInfo is the in-memory pnode: attributes plus the extent map.
type pnodeInfo struct {
	pn         Pnode
	size       int64
	continuous bool
	extents    []Extent // sorted by FileOff, non-overlapping
}

// GarbageEntry describes one hole in the log: obsolete bytes created by
// an overwrite or delete. The garbage file is the append-only sequence
// of these entries.
type GarbageEntry struct {
	Seg int64
	Off int32
	Len int32
}

// summary entry kinds.
const (
	entData   = 1
	entDelete = 2
)

// summaryEntry records one write (or deletion) in a segment's summary,
// driving both cleaning liveness checks and crash roll-forward.
type summaryEntry struct {
	kind    uint8
	pn      Pnode
	fileOff int64
	segOff  int32
	length  int32
	media   bool
}

// segState tracks a sealed segment.
type segState struct {
	id        int64
	seq       uint64
	live      int64
	dataBytes int64
	media     bool
	onDisk    bool
}

// openSeg is a segment being filled in memory.
type openSeg struct {
	id       int64
	media    bool
	owner    Pnode  // owning file for media segments (0 for shared)
	buf      []byte // the payload so far; grows with it, never to SegSize up front
	borrowed bool   // buf is bytes Write was handed: its capacity is not ours to append into
	dead     int64  // bytes already obsolete before sealing
	entries  []summaryEntry
}

// Stats is the core layer's accounting, consumed by the experiments.
type Stats struct {
	BytesAppended   int64 // file payload bytes that entered the log
	SegmentsSealed  int64
	SegmentsFreed   int64
	GarbageEntries  int64 // entries ever appended to the garbage file
	GarbageBytes    int64 // current dead bytes in sealed segments
	LiveBytes       int64
	CacheHits       int64
	CacheMisses     int64
	MediaCacheHits  int64 // CM hits, only possible with CacheContinuous
	MediaCacheMiss  int64
	CleanerRuns     int64
	CleanerCopied   int64 // live bytes relocated by cleaning
	CleanerScanWork int64 // usage-table entries examined (Sprite mode)
	RolledForward   int64 // summary entries applied during recovery
}

// Config parameterises the core layer.
type Config struct {
	// SegSize must match the array's segment size.
	SegSize int
	// CacheBlocks bounds the block cache for ordinary data
	// (continuous-media data is never cached, per §5). 0 disables.
	CacheBlocks int
	// CacheContinuous admits continuous-media data to the block cache.
	// The paper argues this is counterproductive ("by the time a user
	// has seen a video to the end, the beginning has already been
	// evicted"); the flag exists so experiment E15 can measure exactly
	// that. Default false = the Pegasus policy.
	CacheContinuous bool
	// ScanCost is the CPU cost of examining one usage-table entry in
	// the Sprite-style cleaner; the Pegasus cleaner does not pay it.
	ScanCost sim.Duration
	// EntryCost is the CPU cost of handling one garbage-file entry.
	EntryCost sim.Duration
}

// DefaultConfig sizes a store for tests and experiments.
func DefaultConfig(segSize int) Config {
	return Config{
		SegSize:     segSize,
		CacheBlocks: 256,
		ScanCost:    200 * sim.Nanosecond,
		EntryCost:   400 * sim.Nanosecond,
	}
}

// FS is a Pegasus core-layer instance over a disk array.
type FS struct {
	sim *sim.Sim
	arr *raid.Array
	cfg Config

	pnodes  map[Pnode]*pnodeInfo
	nextPn  Pnode
	nextSeq uint64

	segs     map[int64]*segState
	freeSegs []int64
	open     map[int64]*openSeg
	cur      *openSeg // normal data + metadata
	// mediaCur holds one open segment per continuous file: streams do
	// not share segments, so a stream's data stays contiguous on disk
	// (sequential reads at the guaranteed rate) and its extents merge.
	mediaCur map[Pnode]*openSeg

	garbage []GarbageEntry

	cache *blockCache

	pendingIO int
	ioWaiters []func(error)
	ioErr     error // first segment-write error no Sync has reported yet

	ckptSeq  uint64
	ckptSlot int // 0 or 1, next slot to write

	Stats Stats
}

// reserved checkpoint segments.
const ckptSegs = 2

// New formats a fresh store on the array.
func New(s *sim.Sim, arr *raid.Array, cfg Config) *FS {
	if cfg.SegSize != arr.SegmentSize() {
		panic("lfs: config segment size must match the array")
	}
	fs := &FS{
		sim:      s,
		arr:      arr,
		cfg:      cfg,
		pnodes:   make(map[Pnode]*pnodeInfo),
		nextPn:   FirstPnode,
		segs:     make(map[int64]*segState),
		open:     make(map[int64]*openSeg),
		mediaCur: make(map[Pnode]*openSeg),
	}
	for i := arr.Segments() - 1; i >= ckptSegs; i-- {
		fs.freeSegs = append(fs.freeSegs, i)
	}
	if cfg.CacheBlocks > 0 {
		fs.cache = newBlockCache(cfg.CacheBlocks)
	}
	return fs
}

// Sim exposes the simulator (benchmark harnesses).
func (fs *FS) Sim() *sim.Sim { return fs.sim }

// Array exposes the backing disk array (fault injection in tests and
// experiments).
func (fs *FS) Array() *raid.Array { return fs.arr }

// FreeSegments reports segments available for allocation.
func (fs *FS) FreeSegments() int { return len(fs.freeSegs) }

// GarbageBacklog reports unprocessed garbage-file entries.
func (fs *FS) GarbageBacklog() int { return len(fs.garbage) }

// Create allocates a new file. Continuous files take the media data
// path: separate segments, no caching.
func (fs *FS) Create(continuous bool) Pnode {
	pn := fs.nextPn
	fs.nextPn++
	fs.pnodes[pn] = &pnodeInfo{pn: pn, continuous: continuous}
	return pn
}

// CreateAt allocates a file with a specific pnode number. Ids below
// FirstPnode are reserved for service stacks (directories, name maps)
// that need well-known locations to recover from.
func (fs *FS) CreateAt(pn Pnode, continuous bool) error {
	if _, dup := fs.pnodes[pn]; dup {
		return ErrBadExtent
	}
	fs.pnodes[pn] = &pnodeInfo{pn: pn, continuous: continuous}
	if pn >= fs.nextPn {
		fs.nextPn = pn + 1
	}
	return nil
}

// Size reports a file's size.
func (fs *FS) Size(pn Pnode) (int64, error) {
	pi, ok := fs.pnodes[pn]
	if !ok {
		return 0, ErrNoFile
	}
	return pi.size, nil
}

// Exists reports whether a pnode is allocated.
func (fs *FS) Exists(pn Pnode) bool {
	_, ok := fs.pnodes[pn]
	return ok
}

// Continuous reports a file's media flag.
func (fs *FS) Continuous(pn Pnode) bool {
	pi, ok := fs.pnodes[pn]
	return ok && pi.continuous
}

// extentAt returns the index of the first extent ending beyond off
// (len(extents) if none does); extents are sorted by FileOff.
func (pi *pnodeInfo) extentAt(off int64) int {
	return sort.Search(len(pi.extents), func(i int) bool {
		e := pi.extents[i]
		return e.FileOff+e.Len > off
	})
}

// AddrOf maps a file offset to its linear array address. It reports
// false for holes and unknown files. The continuous-media round
// scheduler uses it to SCAN-order each round's stream reads by disk
// position, so the per-round seek budget charged at admission is an
// upper bound on what the heads actually spend.
func (fs *FS) AddrOf(pn Pnode, off int64) (int64, bool) {
	pi, ok := fs.pnodes[pn]
	if !ok {
		return 0, false
	}
	i := pi.extentAt(off)
	if i >= len(pi.extents) || pi.extents[i].FileOff > off {
		return 0, false
	}
	e := pi.extents[i]
	return e.Addr + (off - e.FileOff), true
}

// cacheable reports whether a file's data may enter the block cache:
// ordinary data always (if a cache exists), continuous-media data only
// under the E15 ablation flag.
func (fs *FS) cacheable(pi *pnodeInfo) bool {
	return fs.cache != nil && (!pi.continuous || fs.cfg.CacheContinuous)
}

// segBase converts a segment id to its linear base address.
func (fs *FS) segBase(seg int64) int64 { return seg * int64(fs.cfg.SegSize) }

// segOf converts a linear address to its segment id.
func (fs *FS) segOf(addr int64) int64 { return addr / int64(fs.cfg.SegSize) }

// Write appends or overwrites file data. Data lands in the current open
// segment (normal or media); sealed segments go to the array
// asynchronously. The call itself is synchronous in-memory work —
// exactly the paper's delayed-write design, where durability is the
// job of Sync/Checkpoint and the client-agent protocol above. data is
// moved into the log: the slice belongs to the store from this call on;
// it may be shared with other writes, it may never be written again; the
// store keeps its whole backing array alive. A continuous file's open
// segment is those very bytes for as long as each write continues the
// previous one in memory; anything else is copied (see place).
func (fs *FS) Write(pn Pnode, off int64, data []byte) error {
	pi, ok := fs.pnodes[pn]
	if !ok {
		return ErrNoFile
	}
	if off < 0 {
		return ErrBadExtent
	}
	return fs.place(pi, off, data, true, func(off, addr, n int64) {
		fs.insertExtent(pi, Extent{FileOff: off, Addr: addr, Len: n})
		fs.Stats.BytesAppended += n
		fs.Stats.LiveBytes += n
		if fs.cacheable(pi) {
			fs.cache.invalidate(pn, off, n)
		}
	})
}

// place lays file bytes into the file's open segment, sealing full ones
// on the way, and reports each piece laid down to placed. With owned set
// (data is the store's to keep) a media segment borrows its first piece
// and stays borrowed while every later piece begins where the run ends in
// memory; any other piece — and every piece of the shared log head, where
// many files' small writes interleave — is copied.
func (fs *FS) place(pi *pnodeInfo, off int64, data []byte, owned bool, placed func(off, addr, n int64)) error {
	for len(data) > 0 {
		seg, err := fs.openFor(pi)
		if err != nil {
			return err
		}
		n := min(len(data), fs.roomIn(seg))
		if n <= 0 {
			fs.seal(seg)
			continue
		}
		segOff := len(seg.buf)
		switch {
		case owned && seg.media && seg.buf == nil:
			seg.buf, seg.borrowed = data[:n], true
		case owned && seg.borrowed && n <= cap(seg.buf)-segOff && &seg.buf[:segOff+1][segOff] == &data[0]:
			seg.buf = seg.buf[:segOff+n]
		default:
			if seg.borrowed || seg.buf != nil && n > cap(seg.buf)-segOff {
				// The first piece sized the buffer to itself, so a segment
				// sealed after one small write costs its fill. A later piece
				// that does not fit means the segment is being streamed into:
				// make all the room it can use, once. A borrowed run always
				// moves out first: its spare capacity is the rest of the
				// caller's buffer, which other segments may alias.
				seg.buf = append(make([]byte, 0, segOff+fs.roomIn(seg)), seg.buf...)
				seg.borrowed = false
			}
			seg.buf = append(seg.buf, data[:n]...)
		}
		seg.entries = append(seg.entries, summaryEntry{
			kind: entData, pn: pi.pn, fileOff: off,
			segOff: int32(segOff), length: int32(n), media: pi.continuous,
		})
		placed(off, fs.segBase(seg.id)+int64(segOff), int64(n))
		off += int64(n)
		data = data[n:]
	}
	return nil
}

// insertExtent installs a new extent, trimming overlaps and recording
// the displaced bytes as garbage.
func (fs *FS) insertExtent(pi *pnodeInfo, ne Extent) {
	var out []Extent
	for _, e := range pi.extents {
		if e.FileOff+e.Len <= ne.FileOff || e.FileOff >= ne.FileOff+ne.Len {
			out = append(out, e)
			continue
		}
		// Overlap: keep the non-overlapped head/tail, garbage the rest.
		if e.FileOff < ne.FileOff {
			out = append(out, Extent{FileOff: e.FileOff, Addr: e.Addr, Len: ne.FileOff - e.FileOff})
		}
		if end, nend := e.FileOff+e.Len, ne.FileOff+ne.Len; end > nend {
			cut := nend - e.FileOff
			out = append(out, Extent{FileOff: nend, Addr: e.Addr + cut, Len: end - nend})
		}
		lo := max64(e.FileOff, ne.FileOff)
		hi := min64(e.FileOff+e.Len, ne.FileOff+ne.Len)
		fs.addGarbage(e.Addr+(lo-e.FileOff), hi-lo)
	}
	out = append(out, ne)
	sort.Slice(out, func(i, j int) bool { return out[i].FileOff < out[j].FileOff })
	// Merge extents that are contiguous in both file and disk space
	// (the common append pattern), keeping the map compact.
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 {
			p := &merged[n-1]
			if p.FileOff+p.Len == e.FileOff && p.Addr+p.Len == e.Addr {
				p.Len += e.Len
				continue
			}
		}
		merged = append(merged, e)
	}
	pi.extents = merged
	if ne.FileOff+ne.Len > pi.size {
		pi.size = ne.FileOff + ne.Len
	}
}

// addGarbage appends a garbage-file entry for a dead address range.
func (fs *FS) addGarbage(addr, n int64) {
	for n > 0 {
		seg := fs.segOf(addr)
		segOff := addr - fs.segBase(seg)
		take := min64(n, int64(fs.cfg.SegSize)-segOff)
		fs.garbage = append(fs.garbage, GarbageEntry{Seg: seg, Off: int32(segOff), Len: int32(take)})
		fs.Stats.GarbageEntries++
		fs.Stats.LiveBytes -= take
		if st, ok := fs.segs[seg]; ok {
			st.live -= take
			fs.Stats.GarbageBytes += take
		} else if os, ok := fs.open[seg]; ok {
			// Dead on arrival: the hole never reaches the disk as live
			// data, but the space in the open segment is already spent.
			os.dead += take
			fs.Stats.GarbageBytes += take
		}
		addr += take
		n -= take
	}
}

// Delete removes a file, garbage-collecting all its extents.
func (fs *FS) Delete(pn Pnode) error {
	pi, ok := fs.pnodes[pn]
	if !ok {
		return ErrNoFile
	}
	if fs.cache != nil {
		fs.cache.invalidateFile(pn)
	}
	for _, e := range pi.extents {
		fs.addGarbage(e.Addr, e.Len)
	}
	if os, ok := fs.mediaCur[pn]; ok {
		// The stream's open segment will never get more data; seal it
		// so its space is accounted and reclaimable.
		fs.seal(os)
	}
	delete(fs.pnodes, pn)
	// Record the deletion for roll-forward (in the shared log segment).
	shared := &pnodeInfo{pn: 0}
	seg, err := fs.openFor(shared)
	if err == nil && fs.roomIn(seg) <= 0 {
		fs.seal(seg)
		seg, err = fs.openFor(shared)
	}
	if err == nil {
		seg.entries = append(seg.entries, summaryEntry{kind: entDelete, pn: pn})
	}
	return nil
}

// Read fetches [off, off+n) of a file; holes read as zeros. The done
// callback fires once the data is available (possibly synchronously for
// cached or in-memory ranges). The slice is read-only and may alias the
// store: when one on-disk extent of a file that bypasses the block cache
// covers the range it is the array's own view; every other read (holes,
// open-segment bytes, several extents, cached files) is owned bytes.
func (fs *FS) Read(pn Pnode, off int64, n int, done func([]byte, error)) {
	pi, ok := fs.pnodes[pn]
	if !ok {
		done(nil, ErrNoFile)
		return
	}
	if off < 0 || n < 0 {
		done(nil, ErrBadExtent)
		return
	}
	end := off + int64(n)
	first := pi.extentAt(off)
	cacheOK := fs.cacheable(pi)
	if !cacheOK && n > 0 && first < len(pi.extents) {
		if e := pi.extents[first]; e.FileOff <= off && end <= e.FileOff+e.Len {
			addr := e.Addr + (off - e.FileOff)
			if _, open := fs.open[fs.segOf(addr)]; !open {
				fs.arr.Read(addr, n, done)
				return
			}
		}
	}
	out := make([]byte, n)
	if cacheOK && fs.cache.read(pn, off, out) {
		if pi.continuous {
			fs.Stats.MediaCacheHits++
		} else {
			fs.Stats.CacheHits++
		}
		done(out, nil)
		return
	}
	if cacheOK {
		if pi.continuous {
			fs.Stats.MediaCacheMiss++
		} else {
			fs.Stats.CacheMisses++
		}
	}
	finish := func() {
		if cacheOK {
			// Cache the file blocks this read fully covered; the cache
			// lives in file space, so relocation by the cleaner never
			// stales it and only writes invalidate.
			fs.cache.fill(pn, off, out)
		}
		done(out, nil)
	}
	// Array reads complete in later events, so remaining cannot reach
	// zero before the walk has counted every one of them.
	remaining := 0
	var firstErr error
	for _, e := range pi.extents[first:] {
		lo := max64(e.FileOff, off)
		hi := min64(e.FileOff+e.Len, end)
		if lo >= hi {
			break // sorted: this extent and all later ones start at or past end
		}
		addr := e.Addr + (lo - e.FileOff)
		dst := out[lo-off : hi-off]
		if os, ok := fs.open[fs.segOf(addr)]; ok {
			copy(dst, os.buf[addr-fs.segBase(os.id):])
			continue
		}
		remaining++
		fs.arr.Read(addr, len(dst), func(b []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				copy(dst, b)
			}
			if remaining--; remaining > 0 {
				return
			}
			if firstErr != nil {
				done(nil, firstErr)
				return
			}
			finish()
		})
	}
	if remaining == 0 {
		finish()
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (fs *FS) String() string {
	return fmt.Sprintf("lfs{%d files, %d free segs, %d garbage entries}",
		len(fs.pnodes), len(fs.freeSegs), len(fs.garbage))
}
