package raid_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

const segSize = 1 << 20

func newArray(s *sim.Sim, nseg int64) *raid.Array {
	return raid.New(s, disk.DefaultParams(), segSize, nseg)
}

func fillSegment(seed byte) []byte {
	b := make([]byte, segSize)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func writeSeg(t *testing.T, s *sim.Sim, a *raid.Array, seg int64, data []byte) {
	t.Helper()
	var err error
	done := false
	a.WriteSegment(seg, data, nil, func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("WriteSegment: done=%v err=%v", done, err)
	}
}

func readSeg(t *testing.T, s *sim.Sim, a *raid.Array, seg int64) []byte {
	t.Helper()
	var out []byte
	var err error
	a.ReadSegment(seg, func(b []byte, e error) { out, err = b, e })
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSegmentRoundTrip(t *testing.T) {
	s := sim.New()
	a := newArray(s, 8)
	data := fillSegment(3)
	writeSeg(t, s, a, 2, data)
	if got := readSeg(t, s, a, 2); !bytes.Equal(got, data) {
		t.Fatal("segment round trip mismatch")
	}
}

func TestAnySingleDiskLossRecoverable(t *testing.T) {
	// The core RAID invariant: for every disk (including parity), fail
	// it and confirm all data still reads back.
	for fail := 0; fail < raid.TotalDisks; fail++ {
		s := sim.New()
		a := newArray(s, 4)
		var want [][]byte
		for seg := int64(0); seg < 4; seg++ {
			d := fillSegment(byte(seg * 11))
			want = append(want, d)
			writeSeg(t, s, a, seg, d)
		}
		a.FailDisk(fail)
		for seg := int64(0); seg < 4; seg++ {
			if got := readSeg(t, s, a, seg); !bytes.Equal(got, want[seg]) {
				t.Fatalf("disk %d failed: segment %d corrupted", fail, seg)
			}
		}
		if fail < raid.DataDisks && a.Stats.Reconstructions == 0 {
			t.Fatalf("disk %d: no reconstructions recorded", fail)
		}
	}
}

func TestDoubleFailureRejected(t *testing.T) {
	s := sim.New()
	a := newArray(s, 4)
	writeSeg(t, s, a, 0, fillSegment(1))
	a.FailDisk(0)
	a.FailDisk(1)
	var err error
	a.ReadSegment(0, func(b []byte, e error) { err = e })
	s.Run()
	if err == nil {
		t.Fatal("double failure read succeeded")
	}
}

func TestDegradedWriteThenRecoverAfterRepair(t *testing.T) {
	s := sim.New()
	a := newArray(s, 4)
	a.FailDisk(1)
	data := fillSegment(9)
	writeSeg(t, s, a, 0, data) // degraded write: chunk 1 only in parity
	if got := readSeg(t, s, a, 0); !bytes.Equal(got, data) {
		t.Fatal("degraded write unreadable")
	}
	// Rebuild the disk and verify reads no longer need parity.
	var rerr error
	rebuilt := false
	a.Rebuild(1, func(e error) { rerr = e; rebuilt = true })
	s.Run()
	if !rebuilt || rerr != nil {
		t.Fatalf("rebuild: %v", rerr)
	}
	before := a.Stats.Reconstructions
	if got := readSeg(t, s, a, 0); !bytes.Equal(got, data) {
		t.Fatal("post-rebuild read mismatch")
	}
	if a.Stats.Reconstructions != before {
		t.Fatal("post-rebuild read still reconstructing")
	}
}

func TestLinearReadAcrossChunks(t *testing.T) {
	s := sim.New()
	a := newArray(s, 4)
	data := fillSegment(5)
	writeSeg(t, s, a, 1, data)
	// Read a range spanning two chunks of segment 1.
	chunk := segSize / raid.DataDisks
	off := int64(segSize) + int64(chunk) - 100
	var out []byte
	var err error
	a.Read(off, 200, func(b []byte, e error) { out, err = b, e })
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data[chunk-100:chunk+100]) {
		t.Fatal("cross-chunk read mismatch")
	}
}

func TestLinearReadDegraded(t *testing.T) {
	s := sim.New()
	a := newArray(s, 4)
	data := fillSegment(7)
	writeSeg(t, s, a, 0, data)
	a.FailDisk(0)
	var out []byte
	var err error
	a.Read(10, 100, func(b []byte, e error) { out, err = b, e })
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data[10:110]) {
		t.Fatal("degraded linear read mismatch")
	}
}

func TestStripeParallelismBeatsSingleDisk(t *testing.T) {
	// E9's striping claim: writing N segments to the array approaches
	// 4x one disk's rate because the four chunks transfer in parallel.
	measure := func(useArray bool) sim.Duration {
		s := sim.New()
		if useArray {
			a := newArray(s, 32)
			for i := int64(0); i < 16; i++ {
				a.WriteSegment(i, make([]byte, segSize), nil, func(error) {})
			}
			s.Run()
		} else {
			d := disk.New(s, disk.DefaultParams(), 64<<20)
			for i := int64(0); i < 16; i++ {
				d.Write(i*segSize, segSize, make([]byte, segSize), nil, func(error) {})
			}
			s.Run()
		}
		return s.Now()
	}
	arrayTime := measure(true)
	diskTime := measure(false)
	speedup := float64(diskTime) / float64(arrayTime)
	if speedup < 3.0 {
		t.Fatalf("stripe speedup %.2fx, want >= 3x", speedup)
	}
}

// Property: write-then-read of random segments round-trips, with or
// without a random single-disk failure.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed byte, failDisk uint8, doFail bool) bool {
		s := sim.New()
		a := newArray(s, 2)
		data := fillSegment(seed)
		ok := true
		a.WriteSegment(0, data, nil, func(e error) { ok = ok && e == nil })
		s.Run()
		if doFail {
			a.FailDisk(int(failDisk) % raid.TotalDisks)
		}
		var got []byte
		a.ReadSegment(0, func(b []byte, e error) {
			ok = ok && e == nil
			got = b
		})
		s.Run()
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
