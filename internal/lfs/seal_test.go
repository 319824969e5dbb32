package lfs

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

// seal gives the open segment's buffer to the array, which gives its
// chunks to the disks: a window read off the sealed segment is a view of
// the very buffer Write filled.
func TestSealMovesTheOpenBuffer(t *testing.T) {
	const segSize = 64 << 10
	s := sim.New()
	fs := New(s, raid.New(s, disk.DefaultParams(), segSize, 8), DefaultConfig(segSize))
	pn := fs.Create(true)
	if err := fs.Write(pn, 0, make([]byte, 40<<10)); err != nil {
		t.Fatal(err)
	}
	buf := fs.mediaCur[pn].buf
	fs.Sync(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	s.Run()
	for _, off := range []int64{100, 16<<10 + 10} { // chunks 0 and 1
		fs.Read(pn, off, 8<<10, func(b []byte, err error) {
			if err != nil || &b[0] != &buf[off] {
				t.Fatalf("read at %d: err %v, a view of the sealed buffer: %v", off, err, err == nil && &b[0] == &buf[off])
			}
		})
		s.Run()
	}
}
