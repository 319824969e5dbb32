package lfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// On-disk summary layout, at the tail of every sealed segment:
//
//	entries: kind(1) media(1) pn(4) fileOff(8) segOff(4) len(4)  = 22 B
//	trailer: magic "PGSS"(4) seq(8) count(4) fill(4) crc(4)      = 24 B
//
// crc covers the entries and the trailer up to the crc field.
const (
	entrySize   = 22
	trailerSize = 24
)

var summaryMagic = [4]byte{'P', 'G', 'S', 'S'}

// roomIn reports how many payload bytes fit in the open segment,
// reserving space for one more summary entry and the trailer.
func (fs *FS) roomIn(seg *openSeg) int {
	reserved := (len(seg.entries)+1)*entrySize + trailerSize
	return fs.cfg.SegSize - reserved - len(seg.buf)
}

// openFor returns (allocating if needed) the open segment for a file:
// the shared log-head segment for ordinary data and metadata, or the
// file's private segment for continuous-media data. A new segment has no
// buffer yet: it grows with what is written into it.
func (fs *FS) openFor(pi *pnodeInfo) (*openSeg, error) {
	if pi.continuous {
		if seg, ok := fs.mediaCur[pi.pn]; ok {
			return seg, nil
		}
	} else if fs.cur != nil {
		return fs.cur, nil
	}
	if len(fs.freeSegs) == 0 {
		return nil, ErrNoSpace
	}
	id := fs.freeSegs[len(fs.freeSegs)-1]
	fs.freeSegs = fs.freeSegs[:len(fs.freeSegs)-1]
	seg := &openSeg{id: id, media: pi.continuous, owner: pi.pn}
	fs.open[id] = seg
	if pi.continuous {
		fs.mediaCur[pi.pn] = seg
	} else {
		fs.cur = seg
	}
	return seg, nil
}

// seal serialises the summary, hands the segment to the array as its two
// non-zero ends — the payload and the summary, nothing for the gap
// between them — and retires it from the open set. The buffers go with
// it: nothing here touches them again.
func (fs *FS) seal(seg *openSeg) {
	delete(fs.open, seg.id)
	fs.clearCur(seg)
	if len(seg.buf) == 0 && len(seg.entries) == 0 {
		// Nothing in it: give the segment back.
		fs.freeSegs = append(fs.freeSegs, seg.id)
		return
	}
	fs.nextSeq++
	seq := fs.nextSeq

	// Entries + trailer, ending where the segment ends.
	summary := make([]byte, 0, len(seg.entries)*entrySize+trailerSize)
	live := -seg.dead
	for _, e := range seg.entries {
		var media byte
		if e.media {
			media = 1
		}
		summary = append(summary, e.kind, media)
		summary = put32(summary, uint32(e.pn))
		summary = put64(summary, uint64(e.fileOff))
		summary = put32(summary, uint32(e.segOff))
		summary = put32(summary, uint32(e.length))
		if e.kind == entData {
			live += int64(e.length)
		}
	}
	summary = append(summary, summaryMagic[:]...)
	summary = put64(summary, seq)
	summary = put32(summary, uint32(len(seg.entries)))
	summary = put32(summary, uint32(len(seg.buf)))
	summary = put32(summary, crc32.ChecksumIEEE(summary))

	st := &segState{
		id:        seg.id,
		seq:       seq,
		live:      live,
		dataBytes: int64(len(seg.buf)),
		media:     seg.media,
	}
	fs.segs[seg.id] = st

	fs.pendingIO++
	fs.arr.WriteSegment(seg.id, seg.buf, summary, func(err error) {
		st.onDisk = err == nil
		fs.Stats.SegmentsSealed++
		if err != nil {
			err = fmt.Errorf("lfs: write of segment %d: %w", st.id, err)
		}
		fs.ioDone(err)
	})
}

func (fs *FS) clearCur(seg *openSeg) {
	if fs.cur == seg {
		fs.cur = nil
	}
	if seg.media && fs.mediaCur[seg.owner] == seg {
		delete(fs.mediaCur, seg.owner)
	}
}

// ioDone retires one segment write. Its error waits in ioErr for the
// next Sync to complete — the one that covers the write.
func (fs *FS) ioDone(err error) {
	if fs.ioErr == nil {
		fs.ioErr = err
	}
	if fs.pendingIO--; fs.pendingIO == 0 && len(fs.ioWaiters) > 0 {
		ws, err := fs.ioWaiters, fs.ioErr
		fs.ioWaiters, fs.ioErr = nil, nil
		for _, w := range ws {
			w(err)
		}
	}
}

// Sync seals every open segment and calls done once every outstanding
// segment write has reached the array, with the first error any of them
// (or any since the last Sync) met. Segments cleaned before the call
// return to the free pool once their survivors are safely written.
func (fs *FS) Sync(done func(error)) {
	cleaned := fs.cleaned
	fs.cleaned = nil
	release := func(err error) {
		if err != nil {
			fs.cleaned = append(fs.cleaned, cleaned...)
		} else {
			fs.freeSegs = append(fs.freeSegs, cleaned...)
		}
	}
	if fs.cur != nil {
		fs.seal(fs.cur)
	}
	pns := make([]Pnode, 0, len(fs.mediaCur))
	for pn := range fs.mediaCur {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	for _, pn := range pns {
		fs.seal(fs.mediaCur[pn])
	}
	if fs.pendingIO != 0 {
		fs.ioWaiters = append(fs.ioWaiters, func(err error) { release(err); done(err) })
		return
	}
	err := fs.ioErr
	fs.ioErr = nil
	release(err)
	fs.sim.At(fs.sim.Now(), func() { done(err) })
}

// parseSummary decodes a segment's summary from its full contents.
func parseSummary(buf []byte) (entries []summaryEntry, seq uint64, fill int, ok bool) {
	n := len(buf)
	if n < trailerSize {
		return nil, 0, 0, false
	}
	tr := buf[n-trailerSize:]
	if [4]byte(tr[:4]) != summaryMagic {
		return nil, 0, 0, false
	}
	seq = binary.BigEndian.Uint64(tr[4:])
	count := int(binary.BigEndian.Uint32(tr[12:]))
	fill = int(binary.BigEndian.Uint32(tr[16:]))
	wantCRC := binary.BigEndian.Uint32(tr[20:])
	total := count*entrySize + trailerSize
	if total > n {
		return nil, 0, 0, false
	}
	base := n - total
	if crc32.ChecksumIEEE(buf[base:n-4]) != wantCRC {
		return nil, 0, 0, false
	}
	entries = make([]summaryEntry, count)
	p := base
	for i := range entries {
		b := buf[p : p+entrySize]
		entries[i] = summaryEntry{
			kind:    b[0],
			media:   b[1] == 1,
			pn:      Pnode(binary.BigEndian.Uint32(b[2:])),
			fileOff: int64(binary.BigEndian.Uint64(b[6:])),
			segOff:  int32(binary.BigEndian.Uint32(b[14:])),
			length:  int32(binary.BigEndian.Uint32(b[18:])),
		}
		p += entrySize
	}
	return entries, seq, fill, true
}
