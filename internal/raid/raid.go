// Package raid implements the Pegasus storage array of §5: log segments
// striped across four data disks with a fifth parity disk (RAID-4).
//
// Because the log-structured layer above always writes whole segments,
// every write is a full-stripe write: parity is computed from the fresh
// data with no read-modify-write — the synergy of log structure and RAID
// the paper highlights. Partial writes are supported (with the RMW
// penalty) so experiments can quantify exactly what the log layout
// avoids. A single failed disk is transparent to readers: missing chunks
// are reconstructed from parity.
package raid

import (
	"crypto/subtle"
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Geometry constants from the paper: megabyte segments striped over
// four disks plus one parity disk.
const (
	DataDisks  = 4
	TotalDisks = DataDisks + 1
)

// ErrTooManyFailures reports an unrecoverable array.
var ErrTooManyFailures = errors.New("raid: more than one disk failed")

// Stats accumulates array-level accounting.
type Stats struct {
	SegmentWrites   int64
	SegmentReads    int64
	PartialWrites   int64 // writes requiring read-modify-write of parity
	Reconstructions int64 // chunk reads served via parity
	RebuildBytes    int64
}

// Array is a RAID-4 set of five disks holding fixed-size segments.
type Array struct {
	sim     *sim.Sim
	disks   [TotalDisks]*disk.Disk // 0..3 data, 4 parity
	params  disk.Params
	segSize int
	chunk   int // segSize / DataDisks
	nseg    int64

	Stats Stats
}

// New builds an array of five identical disks sized to hold nseg
// segments of segSize bytes.
func New(s *sim.Sim, p disk.Params, segSize int, nseg int64) *Array {
	if segSize%DataDisks != 0 {
		panic("raid: segment size must divide by the data-disk count")
	}
	a := &Array{sim: s, params: p, segSize: segSize, chunk: segSize / DataDisks, nseg: nseg}
	perDisk := nseg * int64(a.chunk)
	for i := range a.disks {
		a.disks[i] = disk.New(s, p, perDisk)
	}
	return a
}

// SegmentSize reports the segment size in bytes.
func (a *Array) SegmentSize() int { return a.segSize }

// ChunkSize reports the per-disk stripe unit (SegmentSize/DataDisks).
func (a *Array) ChunkSize() int { return a.chunk }

// Params reports the mechanics of the member disks; bandwidth admission
// above the array derives its per-disk time budgets from them.
func (a *Array) Params() disk.Params { return a.params }

// Segments reports the array capacity in segments.
func (a *Array) Segments() int64 { return a.nseg }

// Disk exposes one member disk (tests, fault injection).
func (a *Array) Disk(i int) *disk.Disk { return a.disks[i] }

// failedCount counts failed members.
func (a *Array) failedCount() (n, which int) {
	which = -1
	for i, d := range a.disks {
		if d.Failed() {
			n++
			which = i
		}
	}
	return n, which
}

// xorInto folds src into the front of dst (no shorter), a word at a time.
func xorInto(dst, src []byte) { subtle.XORBytes(dst, dst, src) }

// WriteSegment writes a whole segment as a full stripe: four data chunks
// and freshly computed parity, all in parallel. The segment is given as
// its two non-zero ends — head at offset 0, tail ending at SegmentSize,
// zeros implied between (a dense segment is head alone) — and parity is
// computed over those ends only; every disk is still charged a whole
// chunk. Both buffers belong to the array from this call on: their chunk
// slices become the disk images, uncopied, so the caller must never write
// them again.
func (a *Array) WriteSegment(seg int64, head, tail []byte, done func(error)) {
	if seg < 0 || seg >= a.nseg {
		a.sim.At(a.sim.Now(), func() { done(fmt.Errorf("raid: segment %d out of range", seg)) })
		return
	}
	if n := len(head) + len(tail); n > a.segSize {
		a.sim.At(a.sim.Now(), func() { done(fmt.Errorf("raid: segment write of %d bytes, want at most %d", n, a.segSize)) })
		return
	}
	nf, failed := a.failedCount()
	if nf > 1 {
		a.sim.At(a.sim.Now(), func() { done(ErrTooManyFailures) })
		return
	}
	a.Stats.SegmentWrites++
	off := seg * int64(a.chunk)
	remaining := TotalDisks - nf
	var firstErr error
	finish := func(err error) {
		if err != nil && firstErr == nil && !errors.Is(err, disk.ErrFailed) {
			firstErr = err
		}
		remaining--
		if remaining == 0 {
			done(firstErr)
		}
	}
	// Each chunk is again a head and a tail around implied zeros, and so
	// is parity: as long as the longest head (chunk 0's) and the longest
	// tail (the last chunk's), one dense chunk where those meet.
	ph, pt := min(len(head), a.chunk), min(len(tail), a.chunk)
	parity := make([]byte, min(a.chunk, ph+pt))
	tailAt := a.segSize - len(tail)
	for i := 0; i < DataDisks; i++ {
		lo, hi := i*a.chunk, (i+1)*a.chunk
		var h, t []byte
		if lo < len(head) {
			h = head[lo:min(hi, len(head))]
		}
		if hi > tailAt {
			t = tail[max(lo, tailAt)-tailAt : hi-tailAt]
		}
		xorInto(parity, h)
		xorInto(parity[len(parity)-len(t):], t)
		if i != failed { // degraded write: parity covers the lost chunk
			a.disks[i].Write(off, a.chunk, h, t, finish)
		}
	}
	if failed != DataDisks {
		if len(parity) == a.chunk {
			ph = a.chunk
		}
		a.disks[DataDisks].Write(off, a.chunk, parity[:ph], parity[ph:], finish)
	}
}

// ReadSegment reads a whole segment, reconstructing through parity if
// one data disk is down.
func (a *Array) ReadSegment(seg int64, done func([]byte, error)) {
	if seg < 0 || seg >= a.nseg {
		a.sim.At(a.sim.Now(), func() { done(nil, fmt.Errorf("raid: segment %d out of range", seg)) })
		return
	}
	nf, failed := a.failedCount()
	if nf > 1 {
		a.sim.At(a.sim.Now(), func() { done(nil, ErrTooManyFailures) })
		return
	}
	a.Stats.SegmentReads++
	off := seg * int64(a.chunk)
	out := make([]byte, a.segSize)
	chunks := make([][]byte, TotalDisks)
	remaining := 0
	var firstErr error
	needParity := nf == 1 && failed < DataDisks
	finish := func() {
		remaining--
		if remaining != 0 {
			return
		}
		if firstErr != nil {
			done(nil, firstErr)
			return
		}
		if needParity {
			a.Stats.Reconstructions++
			rec := make([]byte, a.chunk)
			copy(rec, chunks[DataDisks])
			for i := 0; i < DataDisks; i++ {
				if i != failed {
					xorInto(rec, chunks[i])
				}
			}
			chunks[failed] = rec
		}
		for i := 0; i < DataDisks; i++ {
			copy(out[i*a.chunk:], chunks[i])
		}
		done(out, nil)
	}
	read := func(i int) {
		remaining++
		a.disks[i].Read(off, a.chunk, func(b []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			chunks[i] = b
			finish()
		})
	}
	for i := 0; i < DataDisks; i++ {
		if i == failed {
			continue
		}
		read(i)
	}
	if needParity {
		read(DataDisks)
	}
}

// addrOf maps a linear byte address onto (disk, offset).
func (a *Array) addrOf(off int64) (diskIdx int, diskOff int64) {
	seg := off / int64(a.segSize)
	within := off % int64(a.segSize)
	diskIdx = int(within) / a.chunk
	diskOff = seg*int64(a.chunk) + within%int64(a.chunk)
	return
}

// Read fetches an arbitrary extent from the array's linear address
// space (segment-major), reconstructing via parity as needed. It issues
// one disk read per touched chunk. The slice is read-only and may alias
// the store: a range inside one healthy chunk is the disk's own view;
// joins across chunks and reconstructions are owned bytes.
func (a *Array) Read(off int64, n int, done func([]byte, error)) {
	if n == 0 {
		a.sim.At(a.sim.Now(), func() { done(nil, nil) })
		return
	}
	if off < 0 || off+int64(n) > a.nseg*int64(a.segSize) {
		a.sim.At(a.sim.Now(), func() { done(nil, disk.ErrBounds) })
		return
	}
	if int(off%int64(a.chunk))+n <= a.chunk {
		diskIdx, diskOff := a.addrOf(off)
		a.readChunkRange(diskIdx, diskOff, n, done)
		return
	}
	// The join buffer is made when the first chunk lands, so a read
	// waiting in the disk queues holds no memory.
	var out []byte
	remaining := 0
	var firstErr error
	for pos := 0; pos < n; {
		diskIdx, diskOff := a.addrOf(off + int64(pos))
		// Bytes until the end of this chunk.
		at, take := pos, min(n-pos, a.chunk-int(diskOff%int64(a.chunk)))
		remaining++
		a.readChunkRange(diskIdx, diskOff, take, func(b []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				if out == nil {
					out = make([]byte, n)
				}
				copy(out[at:], b)
			}
			if remaining--; remaining > 0 {
				return
			}
			if firstErr != nil {
				done(nil, firstErr)
			} else {
				done(out, nil)
			}
		})
		pos += take
	}
}

// readChunkRange reads from one disk, falling back to parity
// reconstruction when that disk is failed.
func (a *Array) readChunkRange(diskIdx int, off int64, n int, done func([]byte, error)) {
	if !a.disks[diskIdx].Failed() {
		a.disks[diskIdx].Read(off, n, done)
		return
	}
	if nf, _ := a.failedCount(); nf > 1 {
		a.sim.At(a.sim.Now(), func() { done(nil, ErrTooManyFailures) })
		return
	}
	// Reconstruct: XOR of the other three data disks and parity over
	// the same range.
	a.Stats.Reconstructions++
	rec := make([]byte, n)
	remaining := 0
	var firstErr error
	finish := func() {
		remaining--
		if remaining == 0 {
			if firstErr != nil {
				done(nil, firstErr)
			} else {
				done(rec, nil)
			}
		}
	}
	for i := 0; i < TotalDisks; i++ {
		if i == diskIdx {
			continue
		}
		remaining++
		a.disks[i].Read(off, n, func(b []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				xorInto(rec, b)
			}
			finish()
		})
	}
}

// FailDisk fails one member.
func (a *Array) FailDisk(i int) { a.disks[i].Fail() }

// Rebuild reconstructs a repaired disk's contents from the surviving
// members, stripe by stripe.
func (a *Array) Rebuild(i int, done func(error)) {
	a.disks[i].Repair()
	var seg int64
	var step func()
	step = func() {
		if seg >= a.nseg {
			done(nil)
			return
		}
		s := seg
		seg++
		off := s * int64(a.chunk)
		rec := make([]byte, a.chunk)
		remaining := 0
		var firstErr error
		finish := func() {
			remaining--
			if remaining != 0 {
				return
			}
			if firstErr != nil {
				done(firstErr)
				return
			}
			a.Stats.RebuildBytes += int64(a.chunk)
			a.disks[i].Write(off, a.chunk, rec, nil, func(err error) {
				if err != nil {
					done(err)
					return
				}
				step()
			})
		}
		for j := 0; j < TotalDisks; j++ {
			if j == i {
				continue
			}
			remaining++
			a.disks[j].Read(off, a.chunk, func(b []byte, err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				} else if err == nil {
					xorInto(rec, b)
				}
				finish()
			})
		}
	}
	step()
}
