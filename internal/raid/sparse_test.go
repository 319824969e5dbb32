package raid_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

// twin is one array written with head/tail segments beside one written
// with the same segments materialised dense, each on its own simulator.
// Every check compares the sparse one's bytes with want and its clock
// and accounting with the dense one's.
type twin struct {
	t              *testing.T
	ss, sd         *sim.Sim
	sparse, dense  *raid.Array
	segSize, chunk int
	want           map[int64][]byte // dense contents of every written segment
}

func newTwin(t *testing.T, segSize int, nseg int64) *twin {
	ss, sd := sim.New(), sim.New()
	return &twin{
		t: t, ss: ss, sd: sd, segSize: segSize, chunk: segSize / raid.DataDisks,
		sparse: raid.New(ss, disk.DefaultParams(), segSize, nseg),
		dense:  raid.New(sd, disk.DefaultParams(), segSize, nseg),
		want:   make(map[int64][]byte),
	}
}

func (w *twin) write(seg int64, head, tail []byte) {
	w.t.Helper()
	full := make([]byte, w.segSize)
	copy(full, head)
	copy(full[w.segSize-len(tail):], tail)
	w.want[seg] = bytes.Clone(full)
	var es, ed error
	w.sparse.WriteSegment(seg, head, tail, func(e error) { es = e })
	w.dense.WriteSegment(seg, full, nil, func(e error) { ed = e })
	w.ss.Run()
	w.sd.Run()
	if es != nil || ed != nil {
		w.t.Fatalf("WriteSegment: %v, %v", es, ed)
	}
}

// both runs one operation on each array and drains both simulators.
func (w *twin) both(op func(a *raid.Array, s *sim.Sim)) {
	op(w.sparse, w.ss)
	op(w.dense, w.sd)
}

// check reads seg back whole and over random ranges, then compares the
// two arrays' clocks and Stats, member disks included.
func (w *twin) check(rng *rand.Rand, seg int64, what string) {
	w.t.Helper()
	want := w.want[seg]
	var whole []byte
	w.both(func(a *raid.Array, s *sim.Sim) {
		a.ReadSegment(seg, func(b []byte, err error) {
			if err != nil {
				w.t.Fatalf("%s: ReadSegment: %v", what, err)
			}
			if a == w.sparse {
				whole = b
			}
		})
		s.Run()
	})
	if !bytes.Equal(whole, want) {
		w.t.Fatalf("%s: ReadSegment differs from the dense segment", what)
	}
	for i := 0; i < 12; i++ {
		lo := rng.Intn(w.segSize)
		n := 1 + rng.Intn(min(w.segSize-lo, 2*w.chunk))
		if i < 4 { // straddle the end of the head or the start of the tail
			lo = max(0, min(w.segSize-n, []int{w.segSize - 200, w.chunk - 100}[i%2]))
		}
		var got []byte
		w.both(func(a *raid.Array, s *sim.Sim) {
			a.Read(seg*int64(w.segSize)+int64(lo), n, func(b []byte, err error) {
				if err != nil {
					w.t.Fatalf("%s: Read: %v", what, err)
				}
				if a == w.sparse {
					got = b
				}
			})
			s.Run()
		})
		if !bytes.Equal(got, want[lo:lo+n]) {
			w.t.Fatalf("%s: Read [%d,+%d) differs from the dense segment", what, lo, n)
		}
	}
	if w.ss.Now() != w.sd.Now() || w.sparse.Stats != w.dense.Stats {
		w.t.Fatalf("%s: sparse at %v %+v, dense at %v %+v", what, w.ss.Now(), w.sparse.Stats, w.sd.Now(), w.dense.Stats)
	}
	for i := 0; i < raid.TotalDisks; i++ {
		if a, b := w.sparse.Disk(i).Stats, w.dense.Disk(i).Stats; a != b {
			w.t.Fatalf("%s: disk %d stats %+v, dense %+v", what, i, a, b)
		}
	}
}

func (w *twin) rebuild(i int) {
	w.t.Helper()
	w.both(func(a *raid.Array, s *sim.Sim) {
		a.Rebuild(i, func(err error) {
			if err != nil {
				w.t.Fatalf("Rebuild(%d): %v", i, err)
			}
		})
		s.Run()
	})
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// A head/tail segment write is the dense write of the materialised
// segment: ReadSegment, ranged reads, degraded reads with each member
// down in turn and FailDisk → Rebuild return exactly its bytes, at
// exactly the dense write's simulated time and Stats — whatever the
// segment size, the lengths of the two ends (none, a few bytes, more
// than a chunk, the whole segment), a member already down at write
// time, and dense data the segment held before.
func TestSparseSegmentEqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, segSize := range []int{64 << 10, 256 << 10, 1 << 20} {
		chunk := segSize / raid.DataDisks
		ends := []int{0, 1, 46, 7680, chunk - 1, chunk, chunk + 1, 2*chunk + 5000, segSize}
		for trial := 0; trial < 10; trial++ {
			h := ends[rng.Intn(len(ends))]
			tl := min(ends[rng.Intn(len(ends))], segSize-h)
			down := rng.Intn(2*raid.TotalDisks) - raid.TotalDisks // < 0: none
			what := fmt.Sprintf("seg %d KiB head %d tail %d down %d", segSize>>10, h, tl, down)
			w := newTwin(t, segSize, 3)
			const seg = 1
			if trial%2 == 0 {
				w.write(seg, randBytes(rng, segSize), nil)
			}
			if down >= 0 {
				w.both(func(a *raid.Array, _ *sim.Sim) { a.FailDisk(down) })
			}
			w.write(seg, randBytes(rng, h), randBytes(rng, tl))
			w.check(rng, seg, what+" after write")
			if down >= 0 {
				w.rebuild(down)
				w.check(rng, seg, what+" after rebuild")
			}
			for i := 0; i < raid.TotalDisks; i++ {
				w.both(func(a *raid.Array, _ *sim.Sim) { a.FailDisk(i) })
				w.check(rng, seg, fmt.Sprintf("%s, member %d down", what, i))
				w.rebuild(i)
				w.check(rng, seg, fmt.Sprintf("%s, member %d rebuilt", what, i))
			}
		}
	}
}

// The two ends of a segment are moved into the member disks, not
// copied: a chunk-sized read is a view of the buffer WriteSegment was
// given. A reader holding such views keeps its bytes while the segment
// is rewritten dense, then rewritten with ends so short that every page
// it held is unlinked, and while a member fails and is rebuilt.
func TestSegmentEndsAreMovedIn(t *testing.T) {
	s := sim.New()
	a := newArray(s, 4)
	head, tail := fillSegment(4)[:chunk+40<<10], fillSegment(5)[:chunk/2]
	writeEnds := func(head, tail []byte) {
		t.Helper()
		var err error
		a.WriteSegment(2, head, tail, func(e error) { err = e })
		s.Run()
		if err != nil {
			t.Fatal(err)
		}
	}
	writeEnds(head, tail)
	base := int64(2 * segSize)
	hv := readRange(t, s, a, base+chunk+100, 24<<10)
	tv := readRange(t, s, a, base+segSize-chunk/2, 48<<10)
	if &hv[0] != &head[chunk+100] || &tv[0] != &tail[0] {
		t.Fatal("reads of moved-in chunks are not views of the written buffers")
	}
	stop := hold(t, hv, tv)
	defer stop()

	writeSeg(t, s, a, 2, fillSegment(6))
	fresh := fillSegment(7)[:100]
	writeEnds(fresh, nil)
	a.FailDisk(1)
	want := make([]byte, segSize)
	copy(want, fresh)
	if got := readSeg(t, s, a, 2); !bytes.Equal(got, want) {
		t.Fatal("degraded read after the rewrites does not see the new bytes")
	}
	var rerr error
	a.Rebuild(1, func(e error) { rerr = e })
	s.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if got := readSeg(t, s, a, 2); !bytes.Equal(got, want) {
		t.Fatal("rebuilt segment does not hold the new bytes")
	}
}
