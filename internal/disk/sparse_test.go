package disk_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// materialise returns the n dense bytes head ‖ zeros ‖ tail.
func materialise(n int, head, tail []byte) []byte {
	b := make([]byte, n)
	copy(b, head)
	copy(b[n-len(tail):], tail)
	return b
}

// A head/tail write is the dense write of head ‖ zeros ‖ tail: the same
// bytes read back from every range, at the same simulated time and with
// the same Stats — over blank disk and over older dense data, aligned to
// pages or not, with either end empty.
func TestSparseWriteEqualsDense(t *testing.T) {
	const size = 2 * MB
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 150; trial++ {
		ss, sd := sim.New(), sim.New()
		sparse, dense := disk.New(ss, disk.DefaultParams(), size), disk.New(sd, disk.DefaultParams(), size)
		model := make([]byte, size)
		write := func(off int64, n int, head, tail []byte) {
			t.Helper()
			full := materialise(n, head, tail)
			copy(model[off:], full)
			var es, ed error
			sparse.Write(off, n, head, tail, func(e error) { es = e })
			dense.Write(off, n, full, nil, func(e error) { ed = e })
			ss.Run()
			sd.Run()
			if es != nil || ed != nil {
				t.Fatalf("trial %d: write errors %v, %v", trial, es, ed)
			}
		}
		n := 1 + rng.Intn(200<<10)
		off := int64(rng.Intn(size - n))
		if trial%2 == 0 {
			off &^= 16<<10 - 1
		}
		if trial%3 != 0 { // older dense data under and around the write
			lo := max(0, off-int64(rng.Intn(40<<10)))
			hi := min(size, off+int64(n+rng.Intn(40<<10)))
			write(lo, int(hi-lo), fill(byte(trial), int(hi-lo)), nil)
		}
		h := []int{0, rng.Intn(n + 1), n}[rng.Intn(3)]
		tl := []int{0, rng.Intn(n - h + 1), n - h}[rng.Intn(3)]
		write(off, n, fill(byte(trial+1), h), fill(byte(trial+2), tl))

		if ss.Now() != sd.Now() || sparse.Stats != dense.Stats {
			t.Fatalf("trial %d (off %d n %d head %d tail %d): sparse at %v %+v, dense at %v %+v",
				trial, off, n, h, tl, ss.Now(), sparse.Stats, sd.Now(), dense.Stats)
		}
		for i := 0; i < 20; i++ {
			from, to := max(0, off-50<<10), min(size, off+int64(n)+50<<10)
			lo := from + rng.Int63n(to-from)
			ln := rng.Intn(int(min(size-lo, 70<<10)) + 1)
			if got := syncRead(t, ss, sparse, lo, ln); !bytes.Equal(got, model[lo:lo+int64(ln)]) {
				t.Fatalf("trial %d (off %d n %d head %d tail %d): read [%d,+%d) differs from the dense image",
					trial, off, n, h, tl, lo, ln)
			}
		}
	}
}

// A written buffer is moved into the image, not copied: a read of whole
// pages of it is a view of the caller's own buffer. A reader holding
// such views keeps its bytes while the pages are replaced by a dense
// overwrite, unlinked by a write whose zero run covers them, and rebuilt
// by a part-page write.
func TestWrittenBufferIsMovedIn(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 10*MB)
	const n = 256 << 10
	head, tail := fill(5, 64<<10), fill(6, 32<<10)
	write := func(head, tail []byte) {
		t.Helper()
		var err error
		d.Write(0, n, head, tail, func(e error) { err = e })
		s.Run()
		if err != nil {
			t.Fatal(err)
		}
	}
	write(head, tail)
	hv := syncRead(t, s, d, 4<<10, 40<<10)
	tv := syncRead(t, s, d, n-20<<10, 20<<10)
	if &hv[0] != &head[4<<10] || &tv[0] != &tail[12<<10] {
		t.Fatal("reads of moved-in pages are not views of the written buffers")
	}
	if got := syncRead(t, s, d, 0, n); !bytes.Equal(got, materialise(n, head, tail)) {
		t.Fatal("head ‖ zeros ‖ tail does not read back")
	}
	stop := hold(t, hv, tv)
	defer stop()

	write(fill(7, n), nil)
	fresh := fill(8, 100)
	write(fresh, nil) // pages 1.. are inside the zero run: unlinked
	syncWrite(t, s, d, 50, fill(9, 10))
	want := materialise(n, fresh, nil)
	copy(want[50:], fill(9, 10))
	if got := syncRead(t, s, d, 0, n); !bytes.Equal(got, want) {
		t.Fatal("read after the overwrites does not see the new bytes")
	}
}

// The zero run of a write costs nothing: its pages are unlinked, not
// installed, so a megabyte whose ends are a hundred bytes allocates the
// two pages those ends share with it.
func TestZeroRunInstallsNoPage(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 10*MB)
	syncWrite(t, s, d, 0, fill(1, MB)) // stale pages for the zero run to drop
	head, tail := fill(2, 100), fill(3, 50)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.Write(0, MB, head, tail, func(error) {})
	s.Run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 40<<10 {
		t.Errorf("a 1 MiB write with 150 bytes of ends allocated %d bytes, want two pages", got)
	}
	if got := syncRead(t, s, d, 0, MB); !bytes.Equal(got, materialise(MB, head, tail)) {
		t.Fatal("stale bytes show through the zero run")
	}
}
