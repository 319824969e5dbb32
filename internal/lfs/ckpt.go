package lfs

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// Checkpoints live in the two reserved segments (0 and 1), written
// alternately; recovery picks the valid one with the higher sequence
// number, then rolls forward through segment summaries written since.
//
// Checkpoint blob:
//
//	magic "PGCK"(4) seq(8) nextPn(4) nextSeq(8) ckptSlot(1)
//	segCount(4) { id(8) seq(8) live(8) dataBytes(8) media(1) }...
//	pnodeCount(4) { pn(4) media(1) size(8) extCount(4)
//	                { fileOff(8) addr(8) len(8) }... }...
//	garbageCount(4) { seg(8) off(4) len(4) }...
//	crc(4)
var ckptMagic = [4]byte{'P', 'G', 'C', 'K'}

func put32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func put64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// serializeCkpt builds the checkpoint blob for the current state.
func (fs *FS) serializeCkpt(seq uint64) []byte {
	b := make([]byte, 0, 4096)
	b = append(b, ckptMagic[:]...)
	b = put64(b, seq)
	b = put32(b, uint32(fs.nextPn))
	b = put64(b, fs.nextSeq)
	b = append(b, byte(fs.ckptSlot))

	segIDs := make([]int64, 0, len(fs.segs))
	for id := range fs.segs {
		segIDs = append(segIDs, id)
	}
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
	b = put32(b, uint32(len(segIDs)))
	for _, id := range segIDs {
		st := fs.segs[id]
		b = put64(b, uint64(st.id))
		b = put64(b, st.seq)
		b = put64(b, uint64(st.live))
		b = put64(b, uint64(st.dataBytes))
		if st.media {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}

	pns := make([]Pnode, 0, len(fs.pnodes))
	for pn := range fs.pnodes {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	b = put32(b, uint32(len(pns)))
	for _, pn := range pns {
		pi := fs.pnodes[pn]
		b = put32(b, uint32(pn))
		if pi.continuous {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = put64(b, uint64(pi.size))
		b = put32(b, uint32(len(pi.extents)))
		for _, e := range pi.extents {
			b = put64(b, uint64(e.FileOff))
			b = put64(b, uint64(e.Addr))
			b = put64(b, uint64(e.Len))
		}
	}

	b = put32(b, uint32(len(fs.garbage)))
	for _, g := range fs.garbage {
		b = put64(b, uint64(g.Seg))
		b = put32(b, uint32(g.Off))
		b = put32(b, uint32(g.Len))
	}
	b = put32(b, crc32.ChecksumIEEE(b))
	return b
}

// ckptReader is a cursor over a checkpoint blob.
type ckptReader struct {
	b  []byte
	p  int
	ok bool
}

func (r *ckptReader) u32() uint32 {
	if r.p+4 > len(r.b) {
		r.ok = false
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.p:])
	r.p += 4
	return v
}

func (r *ckptReader) u64() uint64 {
	if r.p+8 > len(r.b) {
		r.ok = false
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.p:])
	r.p += 8
	return v
}

func (r *ckptReader) u8() byte {
	if r.p+1 > len(r.b) {
		r.ok = false
		return 0
	}
	v := r.b[r.p]
	r.p++
	return v
}

// parseCkpt validates and loads a checkpoint blob into fresh state.
// It returns the checkpoint's sequence number.
func (fs *FS) parseCkpt(b []byte) (uint64, bool) {
	if len(b) < 4+8+4+8+1+4 || [4]byte(b[:4]) != ckptMagic {
		return 0, false
	}
	// The blob is padded to the segment; find its true length via the
	// structure itself (walk it), verifying the trailing CRC.
	r := &ckptReader{b: b, p: 4, ok: true}
	seq := r.u64()
	nextPn := Pnode(r.u32())
	nextSeq := r.u64()
	slot := int(r.u8())

	segCount := int(r.u32())
	segs := make(map[int64]*segState, segCount)
	for i := 0; i < segCount && r.ok; i++ {
		st := &segState{onDisk: true}
		st.id = int64(r.u64())
		st.seq = r.u64()
		st.live = int64(r.u64())
		st.dataBytes = int64(r.u64())
		st.media = r.u8() == 1
		segs[st.id] = st
	}
	pnCount := int(r.u32())
	pnodes := make(map[Pnode]*pnodeInfo, pnCount)
	for i := 0; i < pnCount && r.ok; i++ {
		pi := &pnodeInfo{}
		pi.pn = Pnode(r.u32())
		pi.continuous = r.u8() == 1
		pi.size = int64(r.u64())
		ec := int(r.u32())
		for j := 0; j < ec && r.ok; j++ {
			var e Extent
			e.FileOff = int64(r.u64())
			e.Addr = int64(r.u64())
			e.Len = int64(r.u64())
			pi.extents = append(pi.extents, e)
		}
		pnodes[pi.pn] = pi
	}
	gc := int(r.u32())
	garbage := make([]GarbageEntry, 0, gc)
	for i := 0; i < gc && r.ok; i++ {
		var g GarbageEntry
		g.Seg = int64(r.u64())
		g.Off = int32(r.u32())
		g.Len = int32(r.u32())
		garbage = append(garbage, g)
	}
	if !r.ok || r.p+4 > len(b) {
		return 0, false
	}
	want := binary.BigEndian.Uint32(b[r.p:])
	if crc32.ChecksumIEEE(b[:r.p]) != want {
		return 0, false
	}
	fs.nextPn = nextPn
	fs.nextSeq = nextSeq
	fs.ckptSlot = 1 - slot // slot holds this ckpt; write the other next
	fs.segs = segs
	fs.pnodes = pnodes
	fs.garbage = garbage
	return seq, true
}

// Checkpoint seals the open segments and writes a checkpoint; done
// fires when both the log and the checkpoint are on disk.
func (fs *FS) Checkpoint(done func(error)) {
	fs.Sync(func(err error) {
		if err != nil {
			done(err)
			return
		}
		seq := fs.nextSeq
		blob := fs.serializeCkpt(seq)
		if len(blob) > fs.cfg.SegSize {
			done(ErrCorrupt)
			return
		}
		// The blob is the segment's head; the padding is implied.
		fs.arr.WriteSegment(int64(fs.ckptSlot), blob, nil, func(err error) {
			if err != nil {
				done(err)
				return
			}
			fs.ckptSeq = seq
			fs.ckptSlot = 1 - fs.ckptSlot
			done(nil)
		})
	})
}

// Crash throws away all volatile state: open segment buffers, the pnode
// map, the usage table and the garbage file tail. The array (the
// "disks") survives. Call Recover to come back.
func (fs *FS) Crash() {
	fs.pnodes = make(map[Pnode]*pnodeInfo)
	fs.segs = make(map[int64]*segState)
	fs.open = make(map[int64]*openSeg)
	fs.cur = nil
	fs.mediaCur = make(map[Pnode]*openSeg)
	fs.freeSegs = nil
	fs.garbage = nil
	fs.nextPn = FirstPnode
	fs.nextSeq = 0
	fs.ckptSeq = 0
	fs.pendingIO = 0
	fs.ioWaiters, fs.ioErr = nil, nil
	if fs.cache != nil {
		fs.cache = newBlockCache(fs.cfg.CacheBlocks)
	}
}

// Recover loads the newest valid checkpoint and rolls the log forward
// through every segment summary with a higher sequence number, in
// sequence order. Acknowledged-but-unflushed writes are gone — exactly
// the window the client-agent protocol (package fileserver) covers.
func (fs *FS) Recover(done func(error)) {
	// Read both checkpoint slots.
	var blobs [2][]byte
	remaining := 2
	var readErr error
	for slot := int64(0); slot < 2; slot++ {
		slot := slot
		fs.arr.ReadSegment(slot, func(b []byte, err error) {
			if err != nil {
				readErr = err
			} else {
				blobs[slot] = b
			}
			remaining--
			if remaining == 0 {
				if readErr != nil {
					done(readErr)
					return
				}
				fs.recoverFromBlobs(blobs, done)
			}
		})
	}
}

func (fs *FS) recoverFromBlobs(blobs [2][]byte, done func(error)) {
	bestSeq := uint64(0)
	found := false
	for _, b := range blobs {
		trial := &FS{cfg: fs.cfg}
		if seq, ok := trial.parseCkpt(b); ok && (!found || seq > bestSeq) {
			bestSeq = seq
			found = true
		}
	}
	if found {
		for _, b := range blobs {
			trial := &FS{cfg: fs.cfg}
			if seq, ok := trial.parseCkpt(b); ok && seq == bestSeq {
				_, _ = fs.parseCkpt(b)
				break
			}
		}
		fs.ckptSeq = bestSeq
	}
	// Roll forward: scan every log segment's summary.
	var cands []rollCand
	seg := int64(ckptSegs)
	var step func()
	step = func() {
		if seg >= fs.arr.Segments() {
			fs.applyRollForward(cands)
			done(nil)
			return
		}
		id := seg
		seg++
		fs.arr.ReadSegment(id, func(b []byte, err error) {
			if err == nil {
				if entries, sseq, fill, ok := parseSummary(b); ok && sseq > fs.ckptSeq {
					cands = append(cands, rollCand{id: id, seq: sseq, fill: fill, entries: entries})
				}
			}
			step()
		})
	}
	step()
}

// rollCand is one post-checkpoint segment found during recovery.
type rollCand struct {
	id      int64
	seq     uint64
	fill    int
	entries []summaryEntry
}

// applyRollForward replays summaries in log order and rebuilds the free
// list and accounting.
func (fs *FS) applyRollForward(cands []rollCand) {
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	for _, c := range cands {
		st := &segState{id: c.id, seq: c.seq, dataBytes: int64(c.fill), onDisk: true}
		fs.segs[c.id] = st
		if c.seq > fs.nextSeq {
			fs.nextSeq = c.seq
		}
		base := fs.segBase(c.id)
		for _, e := range c.entries {
			fs.Stats.RolledForward++
			switch e.kind {
			case entData:
				pi, ok := fs.pnodes[e.pn]
				if !ok {
					pi = &pnodeInfo{pn: e.pn, continuous: e.media}
					fs.pnodes[e.pn] = pi
					if e.pn >= fs.nextPn {
						fs.nextPn = e.pn + 1
					}
				}
				st.media = st.media || e.media
				fs.insertExtent(pi, Extent{
					FileOff: e.fileOff,
					Addr:    base + int64(e.segOff),
					Len:     int64(e.length),
				})
			case entDelete:
				if pi, ok := fs.pnodes[e.pn]; ok {
					for _, x := range pi.extents {
						fs.addGarbage(x.Addr, x.Len)
					}
					delete(fs.pnodes, e.pn)
				}
			}
		}
	}
	// Recompute live bytes per segment from the final extent maps.
	for _, st := range fs.segs {
		st.live = 0
	}
	var liveTotal int64
	for _, pi := range fs.pnodes {
		for _, e := range pi.extents {
			liveTotal += e.Len
			if st, ok := fs.segs[fs.segOf(e.Addr)]; ok {
				st.live += e.Len
			}
		}
	}
	fs.Stats.LiveBytes = liveTotal
	var garbageTotal int64
	for _, st := range fs.segs {
		if d := st.dataBytes - st.live; d > 0 {
			garbageTotal += d
		}
	}
	fs.Stats.GarbageBytes = garbageTotal
	// Free list: everything not in use and not a checkpoint slot.
	fs.freeSegs = nil
	for id := fs.arr.Segments() - 1; id >= ckptSegs; id-- {
		if _, used := fs.segs[id]; !used {
			fs.freeSegs = append(fs.freeSegs, id)
		}
	}
}
