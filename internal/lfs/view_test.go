package lfs_test

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
)

// A window read off a continuous file is a view of the disk, and stays
// the bytes it was while the file is overwritten and deleted, its
// segment is cleaned and reused by another file, and the disk under it
// fails and is rebuilt. Fresh reads see the new state throughout.
func TestReadResultIsASnapshot(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 8)
	const size = 20 << 10
	pn := fs.Create(true)
	old := pattern(1, size)
	write(t, fs, pn, 0, old)
	syncFS(t, s, fs)
	oldAddr, _ := fs.AddrOf(pn, 0)
	window := read(t, s, fs, pn, 100, 8<<10)
	whole := read(t, s, fs, pn, 0, size)
	if !bytes.Equal(window, old[100:100+8<<10]) || !bytes.Equal(whole, old) {
		t.Fatal("read mismatch")
	}
	stop := testutil.Hold(t, window, whole)
	defer stop()

	fresh := pattern(2, size)
	write(t, fs, pn, 0, fresh)
	if got := read(t, s, fs, pn, 0, size); !bytes.Equal(got, fresh) {
		t.Fatal("read of the open segment does not see the overwrite")
	}
	syncFS(t, s, fs)
	if got := read(t, s, fs, pn, 100, 8<<10); !bytes.Equal(got, fresh[100:100+8<<10]) {
		t.Fatal("read after overwrite does not see the new bytes")
	}
	if err := fs.Delete(pn); err != nil {
		t.Fatal(err)
	}
	syncFS(t, s, fs)
	cleanPegasus(t, s, fs)

	// New files until one lands where the held window used to live.
	var reuser []byte
	for seed := byte(3); reuser == nil; seed++ {
		if fs.FreeSegments() == 0 {
			t.Fatal("the cleaned segment was never reused")
		}
		pn = fs.Create(true)
		data := pattern(seed, size)
		write(t, fs, pn, 0, data)
		syncFS(t, s, fs)
		if addr, _ := fs.AddrOf(pn, 0); addr == oldAddr {
			reuser = data
		}
	}
	fs.Array().FailDisk(0)
	if got := read(t, s, fs, pn, 0, size); !bytes.Equal(got, reuser) {
		t.Fatal("degraded read of the reused segment mismatch")
	}
	var rerr error
	fs.Array().Rebuild(0, func(e error) { rerr = e })
	s.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if got := read(t, s, fs, pn, 0, size); !bytes.Equal(got, reuser) {
		t.Fatal("read of the reused segment after rebuild mismatch")
	}
}

// A range one on-disk extent of a continuous file covers goes to the
// array as it is: no buffer, no request list, no closure.
func TestSingleExtentReadAllocatesNoPayload(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 8)
	pn := fs.Create(true)
	write(t, fs, pn, 0, pattern(7, 12<<10))
	syncFS(t, s, fs)
	done := func([]byte, error) {}
	if n := testing.AllocsPerRun(100, func() { fs.Read(pn, 100, 8<<10, done); s.Run() }); n > 2 {
		t.Errorf("single-extent continuous read: %v allocations, want <= 2", n)
	}
}
