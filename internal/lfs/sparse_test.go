package lfs_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/testutil"
)

func invariants(t *testing.T, fs *lfs.FS, when string) {
	t.Helper()
	if err := fs.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// A segment write the array refuses reaches the Sync that covers it —
// and Checkpoint through it — instead of being reported as durable.
func TestSyncReportsSegmentWriteError(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 8)
	fs.Array().FailDisk(0)
	fs.Array().FailDisk(3)
	write(t, fs, fs.Create(true), 0, pattern(1, 5000))
	var err error
	fs.Sync(func(e error) { err = e })
	s.Run()
	if !errors.Is(err, raid.ErrTooManyFailures) {
		t.Fatalf("Sync over a failed segment write: %v, want ErrTooManyFailures", err)
	}
	write(t, fs, fs.Create(false), 0, pattern(2, 5000))
	err = nil
	fs.Checkpoint(func(e error) { err = e })
	s.Run()
	if !errors.Is(err, raid.ErrTooManyFailures) {
		t.Fatalf("Checkpoint over a failed segment write: %v, want ErrTooManyFailures", err)
	}
	// A write that failed with no Sync waiting is owed to the next one,
	// once, even if the array has been mended since.
	write(t, fs, fs.Create(true), 0, pattern(3, segSize)) // fills and seals a segment
	s.Run()
	fs.Array().Disk(0).Repair()
	fs.Sync(func(e error) { err = e })
	s.Run()
	if !errors.Is(err, raid.ErrTooManyFailures) {
		t.Fatalf("Sync after an unobserved failed write: %v, want ErrTooManyFailures", err)
	}
	syncFS(t, s, fs)
}

// Recovery rolls forward over segments sealed as two short ends: their
// summaries parse from the zero-padded segment read back, and every file
// — checkpointed or rolled forward, media or ordinary — holds its bytes.
func TestRollForwardOverSparseSegments(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 24)
	files := make(map[lfs.Pnode][]byte)
	add := func(seed byte, continuous bool) {
		pn := fs.Create(continuous)
		files[pn] = pattern(seed, 1000+700*int(seed))
		write(t, fs, pn, 0, files[pn])
	}
	for seed := byte(1); seed <= 3; seed++ {
		add(seed, true)
	}
	checkpoint(t, s, fs)
	invariants(t, fs, "after checkpoint")
	for seed := byte(4); seed <= 8; seed++ {
		add(seed, seed%2 == 0)
	}
	syncFS(t, s, fs) // one sparse segment per media file, one for the rest
	invariants(t, fs, "after sync")
	sealed := fs.Stats.SegmentsSealed

	fs.Crash()
	recover2(t, s, fs)
	invariants(t, fs, "after recovery")
	if fs.Stats.RolledForward == 0 {
		t.Fatal("nothing rolled forward")
	}
	for pn, want := range files {
		if got := read(t, s, fs, pn, 0, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("pnode %d differs after recovery", pn)
		}
	}
	if sealed < 7 {
		t.Fatalf("%d segments sealed, want one per media file at least", sealed)
	}
}

// A segment that held dense data, once cleaned and reused by a small
// file, is re-sealed as two short ends: the stale middle is gone from the
// disks (it reads as zeros, and so recovers as an ordinary summary), and
// the new file reads back before and after a crash.
func TestCleanedDenseSegmentResealsSparse(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 8)
	big := fs.Create(true)
	write(t, fs, big, 0, pattern(1, 60000))
	syncFS(t, s, fs)
	invariants(t, fs, "dense segment sealed")
	oldAddr, _ := fs.AddrOf(big, 0)
	if err := fs.Delete(big); err != nil {
		t.Fatal(err)
	}
	syncFS(t, s, fs)
	cleanPegasus(t, s, fs)
	invariants(t, fs, "after cleaning")

	var small lfs.Pnode
	var data []byte
	for seed := byte(2); ; seed++ {
		if fs.FreeSegments() == 0 {
			t.Fatal("the cleaned segment was never reused")
		}
		small, data = fs.Create(true), pattern(seed, 1000)
		write(t, fs, small, 0, data)
		syncFS(t, s, fs)
		if addr, _ := fs.AddrOf(small, 0); addr == oldAddr {
			break
		}
	}
	invariants(t, fs, "after reuse")
	var raw []byte
	fs.Array().ReadSegment(oldAddr/segSize, func(b []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		raw = b
	})
	s.Run()
	const summary = 22 + 24 // one entry and the trailer
	if !bytes.Equal(raw[:1000], data) || !bytes.Equal(raw[1000:segSize-summary], make([]byte, segSize-summary-1000)) {
		t.Fatal("the reused segment is not payload ‖ zeros ‖ summary on the disks")
	}
	fs.Crash()
	recover2(t, s, fs)
	invariants(t, fs, "after recovery")
	if got := read(t, s, fs, small, 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("file in the reused segment differs after recovery")
	}
}

// A window read off a sealed media segment is a view of the buffer the
// log filled — the segment was moved to the disks, not copied. A reader
// holding such views keeps its bytes while the file is overwritten and
// deleted and its once-dense segment is cleaned and re-sealed nearly
// empty, which unlinks every page the views sit in.
func TestSealedSegmentIsMovedIn(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 8)
	const size = 40 << 10 // chunks 0 and 1 whole, half of chunk 2
	pn := fs.Create(true)
	old := pattern(1, size)
	write(t, fs, pn, 0, old)
	syncFS(t, s, fs)
	oldAddr, _ := fs.AddrOf(pn, 0)
	first, second := read(t, s, fs, pn, 100, 8<<10), read(t, s, fs, pn, 16<<10+10, 10<<10)
	if again := read(t, s, fs, pn, 100, 8<<10); &again[0] != &first[0] {
		t.Fatal("window reads of a sealed segment are copies, not views")
	}
	if cap(first) != 8<<10 || !bytes.Equal(first, old[100:100+8<<10]) || !bytes.Equal(second, old[16<<10+10:26<<10+10]) {
		t.Fatal("read mismatch")
	}
	stop := testutil.Hold(t, first, second)
	defer stop()

	write(t, fs, pn, 0, pattern(2, size))
	syncFS(t, s, fs)
	if err := fs.Delete(pn); err != nil {
		t.Fatal(err)
	}
	syncFS(t, s, fs)
	cleanPegasus(t, s, fs)
	for seed := byte(3); ; seed++ {
		if fs.FreeSegments() == 0 {
			t.Fatal("the cleaned segment was never reused")
		}
		pn = fs.Create(true)
		data := pattern(seed, 500)
		write(t, fs, pn, 0, data)
		syncFS(t, s, fs)
		if got := read(t, s, fs, pn, 0, 500); !bytes.Equal(got, data) {
			t.Fatal("small file mismatch")
		}
		if addr, _ := fs.AddrOf(pn, 0); addr == oldAddr {
			break
		}
	}
	invariants(t, fs, "after reuse")
}

// Sealing a media segment costs its fill, not its size: a 7680-byte title
// in a 256 KiB log allocates the four part pages its two ends and their
// parity land in plus buffers of about its own length — not a segment
// buffer, a parity chunk and five submit copies (640 KiB).
func TestSparseSealAllocatesItsFill(t *testing.T) {
	const segSize, runs = 256 << 10, 8
	s := sim.New()
	fs := lfs.New(s, raid.New(s, disk.DefaultParams(), segSize, 32), lfs.DefaultConfig(segSize))
	title := pattern(9, 7680)
	place := func() {
		write(t, fs, fs.Create(true), 0, title)
		syncFS(t, s, fs)
	}
	place() // maps, queues and the event pool reach their working size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		place()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 128<<10 {
		t.Errorf("placing a 7680-byte title allocated %d bytes, want <= 128 KiB", per)
	}
}
