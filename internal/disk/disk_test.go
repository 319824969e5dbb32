package disk_test

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

const MB = 1 << 20

func syncWrite(t *testing.T, s *sim.Sim, d *disk.Disk, off int64, p []byte) {
	t.Helper()
	var got error
	doneSet := false
	d.Write(off, len(p), p, nil, func(err error) { got = err; doneSet = true })
	s.Run()
	if !doneSet {
		t.Fatal("write never completed")
	}
	if got != nil {
		t.Fatal(got)
	}
}

func syncRead(t *testing.T, s *sim.Sim, d *disk.Disk, off int64, n int) []byte {
	t.Helper()
	var out []byte
	var got error
	d.Read(off, n, func(b []byte, err error) { out, got = b, err })
	s.Run()
	if got != nil {
		t.Fatal(got)
	}
	return out
}

func TestReadBackWrite(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 10*MB)
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	syncWrite(t, s, d, 12345, payload)
	got := syncRead(t, s, d, 12345, 4096)
	if !bytes.Equal(got, payload) {
		t.Fatal("read back mismatch")
	}
}

func TestSequentialAccessSkipsSeek(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 10*MB)
	syncWrite(t, s, d, 0, make([]byte, 4096))
	seeks := d.Stats.Seeks
	// Next write starts exactly where the head is: no seek.
	syncWrite(t, s, d, 4096, make([]byte, 4096))
	if d.Stats.Seeks != seeks {
		t.Fatalf("sequential write seeked (%d -> %d)", seeks, d.Stats.Seeks)
	}
	// A far write seeks.
	syncWrite(t, s, d, 5*MB, make([]byte, 4096))
	if d.Stats.Seeks != seeks+1 {
		t.Fatalf("random write did not seek")
	}
}

func TestWholeSegmentSeekOverheadUnderTenPercent(t *testing.T) {
	// The paper's claim: seeks between whole-segment transfers cost
	// under 10%, so >= 5 MB/s per disk is achievable.
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 256*MB)
	seg := make([]byte, MB)
	// Write 64 segments at scattered locations (seek before each).
	for i := 0; i < 64; i++ {
		off := int64((i*37)%128) * 2 * MB
		syncWrite(t, s, d, off, seg)
	}
	overhead := float64(d.Stats.SeekTime+d.Stats.RotTime) / float64(d.Stats.BusyTime())
	if overhead >= 0.10 {
		t.Fatalf("seek+rotation overhead %.1f%%, want < 10%%", overhead*100)
	}
	rate := float64(d.Stats.BytesWrite) / d.Stats.BusyTime().Seconds()
	if rate < 5_000_000 {
		t.Fatalf("effective rate %.2f MB/s, want >= 5 MB/s", rate/1e6)
	}
}

func TestSmallRandomWritesDominatedBySeeks(t *testing.T) {
	// The contrast case: 4 KB random writes are seek-bound, the
	// update-in-place pathology log structure avoids.
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 256*MB)
	for i := 0; i < 64; i++ {
		off := int64((i*37)%128) * 2 * MB
		syncWrite(t, s, d, off, make([]byte, 4096))
	}
	overhead := float64(d.Stats.SeekTime+d.Stats.RotTime) / float64(d.Stats.BusyTime())
	if overhead < 0.5 {
		t.Fatalf("small random writes only %.1f%% positioning; model broken", overhead*100)
	}
}

func TestBoundsChecked(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), MB)
	var err error
	d.Read(MB-10, 100, func(b []byte, e error) { err = e })
	s.Run()
	if err != disk.ErrBounds {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
}

func TestFailedDiskRejectsOps(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), MB)
	d.Fail()
	var err error
	d.Write(0, 1, []byte{1}, nil, func(e error) { err = e })
	s.Run()
	if err != disk.ErrFailed {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

func TestFailFlushesQueuedOps(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 10*MB)
	errs := 0
	for i := 0; i < 5; i++ {
		d.Write(int64(i)*MB, 1024, make([]byte, 1024), nil, func(e error) {
			if e != nil {
				errs++
			}
		})
	}
	d.Fail()
	s.Run()
	if errs == 0 {
		t.Fatal("queued operations survived a Fail")
	}
}

func TestRepairClearsData(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), MB)
	syncWrite(t, s, d, 0, []byte{1, 2, 3})
	d.Fail()
	d.Repair()
	got := syncRead(t, s, d, 0, 3)
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatal("repaired disk kept old data")
	}
}

func TestFIFOOrdering(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 10*MB)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		d.Write(int64(i)*MB, 1, []byte{byte(i)}, nil, func(error) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// A queue that never drains reuses its slice and keeps FIFO order, and
// a Fail part-way through reports every waiting request exactly once
// and never one already served.
func TestSustainedBacklogStaysFIFO(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 10*MB)
	var served []int
	failed := map[int]int{}
	issued := 0
	var submit func()
	submit = func() {
		i := issued
		issued++
		d.Read(int64(i%64)<<10, 4<<10, func(_ []byte, err error) {
			if err != nil {
				failed[i]++
				return
			}
			served = append(served, i)
			if len(served) == 2000 {
				d.Fail()
				return
			}
			submit()
			if i%3 == 0 {
				submit() // the backlog grows by one every third read
			}
		})
	}
	for k := 0; k < 4; k++ {
		submit()
	}
	s.Run()
	for k, i := range served {
		if i != k {
			t.Fatalf("read %d completed in position %d", i, k)
		}
	}
	if len(served) != 2000 || len(served)+len(failed) != issued {
		t.Fatalf("%d served + %d failed of %d issued", len(served), len(failed), issued)
	}
	for i, n := range failed {
		if i < 2000 || n != 1 {
			t.Fatalf("read %d failed %d times", i, n)
		}
	}
}
