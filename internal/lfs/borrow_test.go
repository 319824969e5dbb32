package lfs_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// twin is one of two stores driven by the same operations: one is handed
// the pieces as they are (sub-slices of shared buffers, to be borrowed),
// the other a clone of each (nothing to borrow from but the clone).
type twin struct {
	s     *sim.Sim
	fs    *lfs.FS
	clone bool
}

func (w *twin) write(pn lfs.Pnode, off int64, piece []byte) error {
	if w.clone {
		piece = bytes.Clone(piece)
	}
	return w.fs.Write(pn, off, piece)
}

// observe is everything a caller can see of a store at a quiescent point
// (file and, with raw set, segment contents as checksums).
func (w *twin) observe(t *testing.T, pns []lfs.Pnode, raw bool) string {
	t.Helper()
	invariants(t, w.fs, "observe")
	var b bytes.Buffer
	arr := w.fs.Array()
	fmt.Fprintf(&b, "now %d lfs %+v raid %+v free %d garbage %d\n",
		w.s.Now(), w.fs.Stats, arr.Stats, w.fs.FreeSegments(), w.fs.GarbageBacklog())
	for i := 0; i < raid.TotalDisks; i++ {
		fmt.Fprintf(&b, "disk %d %+v\n", i, arr.Disk(i).Stats)
	}
	for _, pn := range pns {
		size, err := w.fs.Size(pn)
		fmt.Fprintf(&b, "pn %d size %d err %v", pn, size, err)
		if err == nil {
			w.fs.Read(pn, 0, int(size), func(data []byte, err error) {
				fmt.Fprintf(&b, " read %d %08x %v", len(data), crc32.ChecksumIEEE(data), err)
			})
			w.s.Run()
		}
		b.WriteByte('\n')
	}
	for seg := int64(0); raw && seg < arr.Segments(); seg++ {
		arr.ReadSegment(seg, func(data []byte, err error) {
			fmt.Fprintf(&b, "seg %d %08x %v\n", seg, crc32.ChecksumIEEE(data), err)
		})
		w.s.Run()
	}
	fmt.Fprintf(&b, "then %d", w.s.Now())
	return b.String()
}

// Borrowing is invisible: over random media and ordinary writes whose
// pieces continue, overlap or sit apart from one another in shared and
// private buffers, with syncs, checkpoints, crashes, cleaning and a
// degraded member in between, every read, raw segment, statistic and
// completion time equals those of a store handed a clone of each piece.
func TestBorrowedEqualsCopied(t *testing.T) {
	const nseg = 128
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var twins [2]*twin
		for i := range twins {
			s := sim.New()
			arr := raid.New(s, disk.DefaultParams(), segSize, nseg)
			twins[i] = &twin{s: s, fs: lfs.New(s, arr, lfs.DefaultConfig(segSize)), clone: i == 1}
		}
		each := func(do func(w *twin) any) {
			t.Helper()
			if a, b := do(twins[0]), do(twins[1]); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: borrowed and copied stores differ:\n%.2000v\n%.2000v", seed, a, b)
			}
		}
		run := func(start func(w *twin, done func(error))) {
			t.Helper()
			each(func(w *twin) any {
				var out error
				start(w, func(err error) { out = err })
				w.s.Run()
				return fmt.Sprint(out, w.s.Now())
			})
		}
		shared := [][]byte{pattern(byte(seed), 160<<10), pattern(byte(seed)+100, 160<<10)}
		var pns []lfs.Pnode
		next := map[lfs.Pnode][2]int{} // where the file's last piece ended: buffer, offset
		failed := -1
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(100); {
			case op < 4 || len(pns) == 0:
				continuous := rng.Intn(3) > 0
				var pn lfs.Pnode
				each(func(w *twin) any { pn = w.fs.Create(continuous); return pn })
				pns = append(pns, pn)
			case op < 80:
				pn := pns[rng.Intn(len(pns))]
				n := 1 + rng.Intn(24<<10)
				if rng.Intn(8) == 0 {
					n += segSize // spills into a second segment
				}
				last := next[pn]
				buf, at := shared[last[0]], last[1]
				switch rng.Intn(5) {
				case 0: // private
					buf, at = pattern(byte(step), n), 0
				case 1: // overlapping the previous piece
					at = max(0, at-1-rng.Intn(512))
				case 2: // apart from it, possibly in the other buffer
					last[0] = rng.Intn(len(shared))
					buf, at = shared[last[0]], rng.Intn(len(shared[0]))
				} // otherwise: continuing it
				if at+n > len(buf) {
					at = 0
				}
				piece := buf[at : at+n]
				next[pn] = [2]int{last[0], at + n}
				size, _ := twins[0].fs.Size(pn)
				off := size
				if rng.Intn(4) == 0 {
					off = rng.Int63n(size + 1)
				}
				each(func(w *twin) any { return w.write(pn, off, piece) })
			case op < 86:
				run(func(w *twin, done func(error)) { w.fs.Sync(done) })
			case op < 89:
				run(func(w *twin, done func(error)) { w.fs.Checkpoint(done) })
			case op < 92:
				run(func(w *twin, done func(error)) {
					w.fs.CleanPegasus(func(cs lfs.CleanStats, err error) { done(fmt.Errorf("%+v %v", cs, err)) })
				})
			case op < 94:
				if rng.Intn(2) == 0 {
					run(func(w *twin, done func(error)) { w.fs.Sync(done) })
				}
				run(func(w *twin, done func(error)) { w.fs.Crash(); w.fs.Recover(done) })
			case failed < 0:
				failed = rng.Intn(raid.TotalDisks)
				each(func(w *twin) any { w.fs.Array().FailDisk(failed); return nil })
			default:
				run(func(w *twin, done func(error)) { w.fs.Array().Rebuild(failed, done) })
				failed = -1
			}
			if step%20 == 19 {
				each(func(w *twin) any { return w.observe(t, pns, step%100 == 99) })
			}
		}
		for _, buf := range shared {
			if !bytes.Equal(buf, pattern(buf[0], len(buf))) {
				t.Fatalf("seed %d: a shared source buffer was written", seed)
			}
		}
	}
}

// A borrowed run's spare capacity is the rest of the caller's buffer:
// when the segment stops being a run — a piece from elsewhere, then
// enough to fill it — nothing lands in buf[k:], and buf[:k] stays too.
func TestBorrowedCapacityIsNeverAppendedInto(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 8)
	const k = 4 << 10
	buf := pattern(1, 48<<10)
	want := bytes.Clone(buf)
	pn := fs.Create(true)
	write(t, fs, pn, 0, buf[:k])
	write(t, fs, pn, k, pattern(2, 3000)) // not where buf[:k] ends
	for off := int64(k + 3000); off < segSize+8<<10; off += 8 << 10 {
		write(t, fs, pn, off, pattern(byte(off>>10), 8<<10))
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("writes after a borrowed piece landed in the caller's buffer")
	}
	syncFS(t, s, fs)
	if got := read(t, s, fs, pn, 0, k+3000); !bytes.Equal(got[:k], want[:k]) || !bytes.Equal(got[k:], pattern(2, 3000)) {
		t.Fatal("read mismatch")
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("sealing wrote the caller's buffer")
	}
}

// The cleaner's survivors are fragments of a transient whole-segment read:
// relocating them must not keep that read alive. Eight 1 MiB segments, 5 %
// live each, cleaned: the store holds no more than its files' bytes (fewer:
// the files were written from two shared buffers), a parity chunk per
// segment and one segment of slack — not 8 MiB of segment reads as well.
func TestRelocationDoesNotPinTheSegmentRead(t *testing.T) {
	const segSize, files, fileSize, keep = 1 << 20, 8, 800 << 10, 40 << 10
	empty := testutil.HeapAlloc()
	s := sim.New()
	fs := lfs.New(s, raid.New(s, disk.DefaultParams(), segSize, 3*files+4), lfs.DefaultConfig(segSize))
	first, second := pattern(1, fileSize), pattern(2, fileSize-keep)
	var pns []lfs.Pnode
	for i := 0; i < files; i++ {
		pns = append(pns, fs.Create(true))
		write(t, fs, pns[i], 0, first)
	}
	syncFS(t, s, fs)
	for _, pn := range pns {
		write(t, fs, pn, keep, second)
	}
	syncFS(t, s, fs)
	if cs := cleanPegasus(t, s, fs); cs.SegmentsCleaned != files || cs.BytesCopied != files*keep {
		t.Fatalf("cleaned %d segments, copied %d bytes; want %d and %d", cs.SegmentsCleaned, cs.BytesCopied, files, files*keep)
	}
	syncFS(t, s, fs)
	const limit = files*fileSize + files*segSize/raid.DataDisks + segSize
	if held := testutil.HeapAlloc() - empty; held > limit {
		t.Errorf("after cleaning %d segments 5%% live the store holds %d bytes, want <= live + parity + one segment = %d", files, held, limit)
	}
	invariants(t, fs, "after cleaning")
	for _, pn := range pns {
		if got := read(t, s, fs, pn, 0, fileSize); !bytes.Equal(got[:keep], first[:keep]) || !bytes.Equal(got[keep:], second) {
			t.Fatalf("file %d differs after cleaning", pn)
		}
	}
}

// One title written to two files 64 KiB at a time is one set of bytes: the
// windows read back are views of the caller's buffer, both files' the same
// memory. A reader on another goroutine holds them — and the buffer —
// while one file is overwritten and deleted and its segments are cleaned
// and reused; the other file reads the title throughout.
func TestBorrowedPagesAreShared(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 12)
	title := pattern(5, 100<<10) // spills into a second segment
	a, b := fs.Create(true), fs.Create(true)
	for _, pn := range []lfs.Pnode{a, b} {
		for off := 0; off < len(title); off += 64 << 10 {
			write(t, fs, pn, int64(off), title[off:min(off+64<<10, len(title))])
		}
	}
	syncFS(t, s, fs)
	const at, n = 16<<10 + 10, 10 << 10
	va, vb := read(t, s, fs, a, at, n), read(t, s, fs, b, at, n)
	if &va[0] != &title[at] || &vb[0] != &title[at] || cap(va) != n {
		t.Fatal("windows of the two files are not clipped views of the one title buffer")
	}
	tail := read(t, s, fs, a, 90<<10, 4<<10) // in the second segment's borrowed run
	if &tail[0] != &title[90<<10] {
		t.Fatal("the piece that spilled into the next segment was not borrowed")
	}
	stop := testutil.Hold(t, va, vb, tail, title)
	defer stop()

	addr, _ := fs.AddrOf(a, 0)
	write(t, fs, a, 0, pattern(6, len(title)))
	syncFS(t, s, fs)
	if err := fs.Delete(a); err != nil {
		t.Fatal(err)
	}
	syncFS(t, s, fs)
	cleanPegasus(t, s, fs)
	for seed := byte(7); ; seed++ {
		if fs.FreeSegments() == 0 {
			t.Fatal("the cleaned segment was never reused")
		}
		pn := fs.Create(true)
		write(t, fs, pn, 0, pattern(seed, 20<<10))
		syncFS(t, s, fs)
		if reused, _ := fs.AddrOf(pn, 0); reused == addr {
			break
		}
	}
	invariants(t, fs, "after reuse")
	if got := read(t, s, fs, b, 0, len(title)); !bytes.Equal(got, title) {
		t.Fatal("the surviving file no longer reads the title")
	}
}
