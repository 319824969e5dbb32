// Package disk models the mechanical disks behind the Pegasus storage
// service (§5): seek time, rotational latency and a finite media
// transfer rate, with an in-memory backing store for the data itself.
//
// The store is a sparse table of immutable pages: a write moves the
// buffer it is given into the table and never touches an installed page,
// so a read can hand out a view of the store that stays a snapshot for as
// long as anyone holds it.
//
// The numbers behind the paper's claims fall straight out of the model:
// moving the head costs ~milliseconds, so writing whole megabyte
// segments amortises the seek to under ten per cent and sustains more
// than five megabytes per second per disk.
package disk

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Params describes the disk mechanics. The defaults approximate a good
// 1994 drive (5400 rpm, ~6 MB/s media rate).
type Params struct {
	// SeekMin is the track-to-track seek; SeekMax the full-stroke seek.
	// A seek across d bytes of a Size-byte disk costs
	// SeekMin + d/Size * (SeekMax - SeekMin).
	SeekMin, SeekMax sim.Duration
	// RotHalf is the average rotational latency (half a revolution).
	RotHalf sim.Duration
	// Rate is the media transfer rate in bytes per second.
	Rate int64
}

// DefaultParams returns 1994-era mechanics.
func DefaultParams() Params {
	return Params{
		SeekMin: 2 * sim.Millisecond,
		SeekMax: 16 * sim.Millisecond,
		RotHalf: 5600 * sim.Microsecond, // 5400 rpm ≈ 11.1 ms/rev
		Rate:    6_000_000,
	}
}

// AvgPosition is the expected cost of repositioning the head for a
// random access: the mean seek (half the stroke on average) plus half a
// revolution of rotational latency. Admission control above the disk
// (the continuous-media round scheduler) charges this per repositioning
// when budgeting a round; the real cost under SCAN ordering is lower,
// which is exactly the safety margin a guarantee needs.
func (p Params) AvgPosition() sim.Duration {
	return p.SeekMin + (p.SeekMax-p.SeekMin)/2 + p.RotHalf
}

// TransferTime is the media transfer time for n bytes.
func (p Params) TransferTime(n int64) sim.Duration {
	return sim.Duration(n * int64(sim.Second) / p.Rate)
}

// ErrFailed reports an operation against a failed disk.
var ErrFailed = errors.New("disk: failed")

// ErrBounds reports an out-of-range access.
var ErrBounds = errors.New("disk: access out of bounds")

// Stats accumulates per-disk accounting.
type Stats struct {
	Reads, Writes         int64
	BytesRead, BytesWrite int64
	SeekTime              sim.Duration
	RotTime               sim.Duration
	TransferTime          sim.Duration
	Seeks                 int64 // repositioning operations (non-sequential)
}

// BusyTime is total time the arm/media were occupied.
func (s *Stats) BusyTime() sim.Duration { return s.SeekTime + s.RotTime + s.TransferTime }

// request is one queued operation over [off, off+n). A write's payload
// rides in its done, which installs it before reporting success.
type request struct {
	write bool
	off   int64
	n     int
	done  func([]byte, error)
}

// Disk is a single mechanical disk running on the simulator. Operations
// are queued FIFO and served one at a time.
type Disk struct {
	sim    *sim.Sim
	params Params
	size   int64
	// pages is the image. A page holds its leading bytes, and what it
	// does not hold is zeros: nil was never written, a short page is
	// where a write's head stopped. An installed page is never mutated,
	// only replaced.
	pages [][]byte

	queue   []request
	busy    bool
	headPos int64 // byte position after the last transfer

	failed bool

	Stats Stats
}

// New builds a disk of the given byte size.
func New(s *sim.Sim, p Params, size int64) *Disk {
	if size <= 0 {
		panic("disk: size must be positive")
	}
	if p.Rate <= 0 {
		panic("disk: rate must be positive")
	}
	// One entry past the last whole page: the partial tail page, or the
	// page an empty read at off == size names.
	return &Disk{sim: s, params: p, size: size, pages: make([][]byte, size/pageSize+1)}
}

// pageSize is the granule of the sparse image. 16 KiB is the smallest
// per-disk chunk any array here writes (64 KiB segments), so a chunk
// write installs whole pages and rebuilds at most the one its tail
// starts in. Measured:
// the scenario workloads do not tell 4, 16 and 64 KiB apart; the E suite
// allocates 1.4-2.7x more at 64 KiB (every 16 KiB chunk write rebuilds a
// page; 4x more again at 256 KiB), and at 4 KiB the page table itself
// doubles E12 and E16.
const pageSize = 16 << 10

// zeros is what a blank range reads as: a read that touches no written
// page, up to the largest chunk any array here reads, is a view of it.
// Shared and read-only.
var zeros = make([]byte, 256<<10)

// view returns [off, off+n) of the image without copying when it can.
// The pages one write installed are consecutive slices of its buffer,
// each keeping the buffer's remaining capacity, so while the pages
// after the first are still those slices the whole range is a view of
// that buffer; a range over pages of different writes is gathered once.
func (d *Disk) view(off int64, n int) []byte {
	pg, in := off/pageSize, int(off%pageSize)
	run := d.pages[pg]
	if run == nil {
		run = zeros
	}
	run = run[:cap(run)]
	whole := in+n <= len(run)
	for k := 0; whole && k*pageSize < in+n; k++ {
		if q := d.pages[pg+int64(k)]; q == nil {
			whole = &run[0] == &zeros[0]
		} else {
			whole = len(q) >= min(pageSize, in+n-k*pageSize) && &q[0] == &run[k*pageSize]
		}
	}
	if whole {
		return run[in : in+n : in+n]
	}
	out := make([]byte, n)
	for pos := 0; pos < n; pg, in = pg+1, 0 {
		take := min(pageSize-in, n-pos)
		if p := d.pages[pg]; in < len(p) {
			copy(out[pos:pos+take], p[in:])
		}
		pos += take
	}
	return out
}

// install makes head ‖ zeros ‖ tail the image of [off, off+n). A page
// inside the head or the tail becomes that slice of it as it is; the page
// the head stops in becomes what is left of the head, the zeros after it
// implied; a page inside the zero run is unlinked. Only a page that keeps
// bytes from outside the write, or has zeros before the tail starts in it,
// is rebuilt.
func (d *Disk) install(off int64, n int, head, tail []byte) {
	end := off + int64(n)
	headEnd, tailAt := off+int64(len(head)), end-int64(len(tail))
	for pg := off / pageSize; pg*pageSize < end; pg++ {
		base := pg * pageSize
		lo, hi := max(base, off), min(base+pageSize, end)
		switch whole := hi-lo == pageSize; {
		case whole && hi <= headEnd:
			d.pages[pg] = head[lo-off : hi-off]
		case whole && lo >= tailAt:
			d.pages[pg] = tail[lo-tailAt : hi-tailAt]
		case whole && lo >= headEnd && hi <= tailAt:
			d.pages[pg] = nil
		case whole && hi <= tailAt:
			d.pages[pg] = head[lo-off:]
		default:
			p, old := make([]byte, pageSize), d.pages[pg]
			copy(p[:lo-base], old)
			if int(hi-base) < len(old) {
				copy(p[hi-base:], old[hi-base:])
			}
			if lo < headEnd {
				copy(p[lo-base:], head[lo-off:])
			}
			if from := max(lo, tailAt); from < hi {
				copy(p[from-base:], tail[from-tailAt:])
			}
			d.pages[pg] = p
		}
	}
}

// Size reports the disk capacity in bytes.
func (d *Disk) Size() int64 { return d.size }

// Failed reports whether the disk has failed.
func (d *Disk) Failed() bool { return d.failed }

// Fail makes the disk refuse all subsequent operations (queued ones
// fail too) — the single-component failure of the paper's RAID story.
func (d *Disk) Fail() {
	d.failed = true
	for _, r := range d.queue {
		d.sim.At(d.sim.Now(), func() { r.done(nil, ErrFailed) })
	}
	d.queue = nil
}

// Repair replaces the disk with a blank one (contents lost, as with a
// physical swap); the array layer rebuilds it from parity.
func (d *Disk) Repair() {
	d.failed = false
	d.pages = make([][]byte, len(d.pages))
}

// Read queues a read of n bytes at off; done receives the data as it is
// at completion time. The slice is read-only and may alias the store.
func (d *Disk) Read(off int64, n int, done func([]byte, error)) {
	d.submit(request{off: off, n: n, done: done})
}

// Write queues a write of the n bytes head ‖ zeros ‖ tail at off: head
// lands at off, tail ends at off+n, and whatever lies between them is
// written as zeros without being stored (a dense write is head alone).
// The mechanics are charged for all n bytes. Both buffers belong to the
// disk from this call on — they become the image, uncopied, and reads
// hand out views of them — so the caller must never write them again.
func (d *Disk) Write(off int64, n int, head, tail []byte, done func(error)) {
	if len(head)+len(tail) > n {
		panic("disk: write payload longer than the write")
	}
	d.submit(request{write: true, off: off, n: n, done: func(_ []byte, err error) {
		if err == nil {
			d.install(off, n, head, tail)
		}
		done(err)
	}})
}

func (d *Disk) submit(r request) {
	if d.failed {
		d.sim.At(d.sim.Now(), func() { r.done(nil, ErrFailed) })
		return
	}
	if r.off < 0 || r.off+int64(r.n) > d.size {
		d.sim.At(d.sim.Now(), func() { r.done(nil, ErrBounds) })
		return
	}
	d.queue = append(d.queue, r)
	if !d.busy {
		d.next()
	}
}

func (d *Disk) next() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	d.busy = true
	r := d.queue[0]
	d.queue = d.queue[1:]

	var cost sim.Duration
	if r.off != d.headPos {
		dist := r.off - d.headPos
		if dist < 0 {
			dist = -dist
		}
		seek := d.params.SeekMin +
			sim.Duration(float64(d.params.SeekMax-d.params.SeekMin)*float64(dist)/float64(d.size))
		cost += seek + d.params.RotHalf
		d.Stats.SeekTime += seek
		d.Stats.RotTime += d.params.RotHalf
		d.Stats.Seeks++
	}
	xfer := sim.Duration(int64(r.n) * int64(sim.Second) / d.params.Rate)
	cost += xfer
	d.Stats.TransferTime += xfer

	d.sim.After(cost, func() {
		if d.failed {
			r.done(nil, ErrFailed)
			d.next()
			return
		}
		d.headPos = r.off + int64(r.n)
		if r.write {
			d.Stats.Writes++
			d.Stats.BytesWrite += int64(r.n)
			r.done(nil, nil)
		} else {
			d.Stats.Reads++
			d.Stats.BytesRead += int64(r.n)
			r.done(d.view(r.off, r.n), nil)
		}
		d.next()
	})
}

// String summarises the disk for reports.
func (d *Disk) String() string {
	return fmt.Sprintf("disk{%d MB, busy=%v}", d.size>>20, d.busy)
}
