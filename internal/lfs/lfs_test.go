package lfs_test

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
)

const segSize = 64 << 10

// newFS builds a store over a fresh array with nseg segments.
func newFS(s *sim.Sim, nseg int64) *lfs.FS {
	arr := raid.New(s, disk.DefaultParams(), segSize, nseg)
	return lfs.New(s, arr, lfs.DefaultConfig(segSize))
}

func write(t *testing.T, fs *lfs.FS, pn lfs.Pnode, off int64, data []byte) {
	t.Helper()
	if err := fs.Write(pn, off, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

func read(t *testing.T, s *sim.Sim, fs *lfs.FS, pn lfs.Pnode, off int64, n int) []byte {
	t.Helper()
	var out []byte
	var err error
	got := false
	fs.Read(pn, off, n, func(b []byte, e error) { out, err = b, e; got = true })
	s.Run()
	if !got {
		t.Fatal("Read never completed")
	}
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return out
}

func syncFS(t *testing.T, s *sim.Sim, fs *lfs.FS) {
	t.Helper()
	var err error
	done := false
	fs.Sync(func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("Sync: done=%v err=%v", done, err)
	}
}

func checkpoint(t *testing.T, s *sim.Sim, fs *lfs.FS) {
	t.Helper()
	var err error
	done := false
	fs.Checkpoint(func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("Checkpoint: done=%v err=%v", done, err)
	}
}

func recover2(t *testing.T, s *sim.Sim, fs *lfs.FS) {
	t.Helper()
	var err error
	done := false
	fs.Recover(func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("Recover: done=%v err=%v", done, err)
	}
}

func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 16)
	pn := fs.Create(false)
	data := pattern(1, 10000)
	write(t, fs, pn, 0, data)
	if got := read(t, s, fs, pn, 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch (from open segment)")
	}
	syncFS(t, s, fs)
	if got := read(t, s, fs, pn, 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch (from disk)")
	}
	if sz, _ := fs.Size(pn); sz != int64(len(data)) {
		t.Fatalf("size = %d", sz)
	}
}

func TestHolesReadZero(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 16)
	pn := fs.Create(false)
	write(t, fs, pn, 5000, []byte{0xFF})
	got := read(t, s, fs, pn, 0, 5001)
	for i := 0; i < 5000; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, got[i])
		}
	}
	if got[5000] != 0xFF {
		t.Fatal("written byte lost")
	}
}

func TestOverwriteCreatesGarbage(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 16)
	pn := fs.Create(false)
	write(t, fs, pn, 0, pattern(1, 8192))
	if fs.Stats.GarbageBytes != 0 {
		t.Fatalf("garbage before overwrite = %d", fs.Stats.GarbageBytes)
	}
	write(t, fs, pn, 2048, pattern(9, 4096))
	if fs.Stats.GarbageBytes != 4096 {
		t.Fatalf("garbage = %d, want 4096", fs.Stats.GarbageBytes)
	}
	if fs.GarbageBacklog() == 0 {
		t.Fatal("no garbage-file entries appended")
	}
	// Content reflects the overwrite.
	got := read(t, s, fs, pn, 0, 8192)
	want := pattern(1, 8192)
	copy(want[2048:], pattern(9, 4096))
	if !bytes.Equal(got, want) {
		t.Fatal("overwrite content wrong")
	}
}

func TestDeleteCreatesGarbageAndRemovesFile(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 16)
	pn := fs.Create(false)
	write(t, fs, pn, 0, pattern(1, 4096))
	if err := fs.Delete(pn); err != nil {
		t.Fatal(err)
	}
	if fs.Stats.GarbageBytes != 4096 {
		t.Fatalf("garbage = %d", fs.Stats.GarbageBytes)
	}
	var err error
	fs.Read(pn, 0, 1, func(b []byte, e error) { err = e })
	s.Run()
	if err != lfs.ErrNoFile {
		t.Fatalf("read after delete err = %v", err)
	}
}

func TestLargeFileSpansSegments(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 32)
	pn := fs.Create(false)
	data := pattern(3, 5*segSize/2) // 2.5 segments
	write(t, fs, pn, 0, data)
	syncFS(t, s, fs)
	if fs.Stats.SegmentsSealed < 2 {
		t.Fatalf("sealed %d segments, want >= 2", fs.Stats.SegmentsSealed)
	}
	if got := read(t, s, fs, pn, 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("multi-segment file corrupted")
	}
}

func TestContinuousDataInSeparateSegments(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 32)
	media := fs.Create(true)
	normal := fs.Create(false)
	// Interleave writes: they must not share segments.
	for i := 0; i < 20; i++ {
		write(t, fs, media, int64(i*2000), pattern(byte(i), 2000))
		write(t, fs, normal, int64(i*1000), pattern(byte(i+100), 1000))
	}
	syncFS(t, s, fs)
	if !fs.Continuous(media) || fs.Continuous(normal) {
		t.Fatal("continuous flags wrong")
	}
	if got := read(t, s, fs, media, 0, 40000); len(got) != 40000 {
		t.Fatal("media read failed")
	}
	// The media/normal segregation is observable through the stats:
	// both kinds of data forced their own seals.
	if fs.Stats.SegmentsSealed < 2 {
		t.Fatalf("sealed %d", fs.Stats.SegmentsSealed)
	}
}

func TestCacheServesRepeatedReads(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 16)
	pn := fs.Create(false)
	data := pattern(5, lfs.BlockSize*4)
	write(t, fs, pn, 0, data)
	syncFS(t, s, fs)
	read(t, s, fs, pn, 0, len(data))
	misses := fs.Stats.CacheMisses
	read(t, s, fs, pn, 0, len(data))
	if fs.Stats.CacheMisses != misses {
		t.Fatalf("second read missed cache (%d -> %d)", misses, fs.Stats.CacheMisses)
	}
	if fs.Stats.CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestContinuousBypassesCache(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 16)
	pn := fs.Create(true)
	data := pattern(5, lfs.BlockSize*4)
	write(t, fs, pn, 0, data)
	syncFS(t, s, fs)
	read(t, s, fs, pn, 0, len(data))
	read(t, s, fs, pn, 0, len(data))
	if fs.Stats.CacheHits != 0 {
		t.Fatalf("continuous file hit the cache %d times", fs.Stats.CacheHits)
	}
}

func TestCheckpointCrashRecover(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 32)
	pn := fs.Create(false)
	data := pattern(7, 20000)
	write(t, fs, pn, 0, data)
	checkpoint(t, s, fs)
	fs.Crash()
	recover2(t, s, fs)
	if !fs.Exists(pn) {
		t.Fatal("file lost across checkpointed crash")
	}
	if got := read(t, s, fs, pn, 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("data corrupted across checkpointed crash")
	}
}

func TestRollForwardRecoversPostCheckpointWrites(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 32)
	pn := fs.Create(false)
	write(t, fs, pn, 0, pattern(1, 10000))
	checkpoint(t, s, fs)
	// Post-checkpoint activity: a new file and an overwrite, flushed to
	// the log but NOT checkpointed.
	pn2 := fs.Create(false)
	write(t, fs, pn2, 0, pattern(2, 5000))
	write(t, fs, pn, 1000, pattern(3, 2000))
	syncFS(t, s, fs)
	fs.Crash()
	recover2(t, s, fs)
	if fs.Stats.RolledForward == 0 {
		t.Fatal("no roll-forward happened")
	}
	want := pattern(1, 10000)
	copy(want[1000:], pattern(3, 2000))
	if got := read(t, s, fs, pn, 0, 10000); !bytes.Equal(got, want) {
		t.Fatal("roll-forward lost the overwrite")
	}
	if got := read(t, s, fs, pn2, 0, 5000); !bytes.Equal(got, pattern(2, 5000)) {
		t.Fatal("roll-forward lost the new file")
	}
}

func TestRollForwardRecoversDeletes(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 32)
	pn := fs.Create(false)
	write(t, fs, pn, 0, pattern(1, 3000))
	checkpoint(t, s, fs)
	if err := fs.Delete(pn); err != nil {
		t.Fatal(err)
	}
	syncFS(t, s, fs)
	fs.Crash()
	recover2(t, s, fs)
	if fs.Exists(pn) {
		t.Fatal("deleted file resurrected by roll-forward")
	}
}

func TestUnflushedWritesLostOnCrash(t *testing.T) {
	// The documented window: data in open segments dies with the
	// server. (The client agent in package fileserver replays it.)
	s := sim.New()
	fs := newFS(s, 32)
	pn := fs.Create(false)
	write(t, fs, pn, 0, pattern(1, 1000))
	// No sync, no checkpoint.
	fs.Crash()
	recover2(t, s, fs)
	if fs.Exists(pn) {
		t.Fatal("unflushed file survived crash; the model is too kind")
	}
}

func TestRecoverWithoutCheckpoint(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 32)
	pn := fs.Create(false)
	data := pattern(9, 12000)
	write(t, fs, pn, 0, data)
	syncFS(t, s, fs) // log on disk, but no checkpoint ever written
	fs.Crash()
	recover2(t, s, fs)
	if got := read(t, s, fs, pn, 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("log-only recovery failed")
	}
}

func cleanPegasus(t *testing.T, s *sim.Sim, fs *lfs.FS) lfs.CleanStats {
	t.Helper()
	var st lfs.CleanStats
	var err error
	done := false
	fs.CleanPegasus(func(cs lfs.CleanStats, e error) { st, err = cs, e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("CleanPegasus: done=%v err=%v", done, err)
	}
	return st
}

func TestPegasusCleanerReclaimsAndPreserves(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 32)
	pn := fs.Create(false)
	keep := fs.Create(false)
	keepData := pattern(42, 9000)
	write(t, fs, keep, 0, keepData)
	// Fill several segments then delete, creating whole-segment garbage.
	write(t, fs, pn, 0, pattern(1, 3*segSize/2))
	syncFS(t, s, fs)
	if err := fs.Delete(pn); err != nil {
		t.Fatal(err)
	}
	syncFS(t, s, fs)
	freeBefore := fs.FreeSegments()
	st := cleanPegasus(t, s, fs)
	if st.SegmentsCleaned == 0 {
		t.Fatal("no segments cleaned")
	}
	if st.BytesFreed == 0 {
		t.Fatal("no bytes freed")
	}
	if fs.FreeSegments() <= freeBefore {
		t.Fatalf("free segments %d -> %d", freeBefore, fs.FreeSegments())
	}
	// Live data survived the move.
	if got := read(t, s, fs, keep, 0, len(keepData)); !bytes.Equal(got, keepData) {
		t.Fatal("cleaner corrupted live data")
	}
	if fs.GarbageBacklog() != 0 {
		t.Fatalf("garbage backlog = %d after clean", fs.GarbageBacklog())
	}
}

func TestSpriteCleanerReclaimsAndPreserves(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 32)
	keep := fs.Create(false)
	keepData := pattern(42, 9000)
	write(t, fs, keep, 0, keepData)
	pn := fs.Create(false)
	write(t, fs, pn, 0, pattern(1, 3*segSize/2))
	syncFS(t, s, fs)
	fs.Delete(pn)
	syncFS(t, s, fs)
	var st lfs.CleanStats
	var err error
	done := false
	fs.CleanSprite(8, func(cs lfs.CleanStats, e error) { st, err = cs, e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("CleanSprite: %v", err)
	}
	if st.SegmentsCleaned == 0 || st.BytesFreed == 0 {
		t.Fatalf("sprite cleaned nothing: %+v", st)
	}
	if st.ScanEntries != 32 {
		t.Fatalf("scan entries = %d, want full table (32)", st.ScanEntries)
	}
	if got := read(t, s, fs, keep, 0, len(keepData)); !bytes.Equal(got, keepData) {
		t.Fatal("sprite cleaner corrupted live data")
	}
}

func TestPegasusCleanerCostIndependentOfFSSize(t *testing.T) {
	// E10 in miniature: same garbage, 8x the file system. The Pegasus
	// cleaner's CPU cost stays flat; Sprite's scan grows with the table.
	run := func(nseg int64) (peg, sprite sim.Duration) {
		mk := func() (*sim.Sim, *lfs.FS) {
			s := sim.New()
			fs := newFS(s, nseg)
			pn := fs.Create(false)
			if err := fs.Write(pn, 0, pattern(1, segSize)); err != nil {
				t.Fatal(err)
			}
			var e2 error
			fs.Sync(func(e error) { e2 = e })
			s.Run()
			if e2 != nil {
				t.Fatal(e2)
			}
			fs.Delete(pn)
			fs.Sync(func(error) {})
			s.Run()
			return s, fs
		}
		s, fs := mk()
		var cs lfs.CleanStats
		fs.CleanPegasus(func(c lfs.CleanStats, e error) { cs = c })
		s.Run()
		peg = cs.CPUTime
		s2, fs2 := mk()
		fs2.CleanSprite(8, func(c lfs.CleanStats, e error) { cs = c })
		s2.Run()
		sprite = cs.CPUTime
		return
	}
	pegSmall, spriteSmall := run(32)
	pegBig, spriteBig := run(256)
	if pegBig > pegSmall*2 {
		t.Fatalf("Pegasus cleaner CPU grew with FS size: %v -> %v", pegSmall, pegBig)
	}
	if spriteBig < spriteSmall*4 {
		t.Fatalf("Sprite cleaner CPU did not scale with FS size: %v -> %v", spriteSmall, spriteBig)
	}
}

func TestNoSpaceError(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 4) // 2 ckpt + 2 usable
	pn := fs.Create(false)
	err := fs.Write(pn, 0, pattern(1, 3*segSize))
	if err != lfs.ErrNoSpace {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestCleaningMakesSpaceReusable(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 6) // 4 usable segments
	for round := 0; round < 6; round++ {
		pn := fs.Create(false)
		write(t, fs, pn, 0, pattern(byte(round), segSize))
		syncFS(t, s, fs)
		if err := fs.Delete(pn); err != nil {
			t.Fatal(err)
		}
		syncFS(t, s, fs)
		cleanPegasus(t, s, fs)
	}
	// After 6 rounds of write-1-segment + delete + clean, space must
	// not be exhausted (4 usable segments).
	if fs.FreeSegments() == 0 {
		t.Fatal("cleaning failed to recycle segments")
	}
}

// A pass short of free segments reuses the ones it has already emptied:
// here three half-live segments are cleaned with one segment free, so
// the third segment's survivors land in the first one cleaned.
func TestCleanReusesOwnSegmentsWhenShort(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 7) // 2 ckpt + 3 half-live + 1 for delete records + 1 free
	half := segSize/2 - 2048
	var keep, doomed []lfs.Pnode
	for i := 0; i < 3; i++ {
		k, d := fs.Create(false), fs.Create(false)
		write(t, fs, k, 0, pattern(byte(i), half))
		write(t, fs, d, 0, pattern(byte(i+10), half))
		syncFS(t, s, fs)
		keep, doomed = append(keep, k), append(doomed, d)
	}
	for _, d := range doomed {
		if err := fs.Delete(d); err != nil {
			t.Fatal(err)
		}
	}
	syncFS(t, s, fs)
	if n := fs.FreeSegments(); n != 1 {
		t.Fatalf("setup left %d free segments, want 1", n)
	}
	if st := cleanPegasus(t, s, fs); st.SegmentsCleaned != 3 || st.BytesCopied != int64(3*half) {
		t.Fatalf("clean: %+v, want 3 segments and %d bytes copied", st, 3*half)
	}
	invariants(t, fs, "after clean")
	for i, k := range keep {
		if got := read(t, s, fs, k, 0, half); !bytes.Equal(got, pattern(byte(i), half)) {
			t.Fatalf("survivor %d lost its data", i)
		}
	}
}

// A crash straight after a clean must not recover a survivor at its old
// address once a later write has reused that segment: the cleaned
// segment is not free until the survivor's new copy is on disk.
func TestCrashAfterCleanRecoversSurvivors(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 16)
	keep, doomed := fs.Create(false), fs.Create(false)
	keepData := pattern(3, 9000)
	write(t, fs, keep, 0, keepData)
	write(t, fs, doomed, 0, pattern(4, segSize))
	checkpoint(t, s, fs) // records keep in the segment about to be cleaned
	if err := fs.Delete(doomed); err != nil {
		t.Fatal(err)
	}
	syncFS(t, s, fs)
	cleanPegasus(t, s, fs)
	// Two full media segments and a partial one: the writes take the
	// segments at the top of the free list — the cleaned ones, were they
	// freed at once — and seal without a Sync.
	media := fs.Create(true)
	write(t, fs, media, 0, pattern(5, 5*segSize/2))
	s.Run()
	fs.Crash()
	recover2(t, s, fs)
	invariants(t, fs, "after recovery")
	if got := read(t, s, fs, keep, 0, len(keepData)); !bytes.Equal(got, keepData) {
		t.Fatal("the survivor lost its data")
	}
}

// TestModelEquivalence drives the FS with a deterministic random
// workload, mirroring every operation in a flat in-memory model, with
// periodic sync/checkpoint/clean/crash/recover, and verifies contents
// match throughout. This is the central correctness property of the
// whole storage stack.
func TestModelEquivalence(t *testing.T) {
	s := sim.New()
	fs := newFS(s, 64)
	rng := sim.NewRand(12345)

	type file struct {
		pn   lfs.Pnode
		data []byte
	}
	var files []*file
	flushed := func() {
		syncFS(t, s, fs)
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 3 && len(files) < 12: // create + write
			f := &file{pn: fs.Create(false)}
			n := 1 + rng.Intn(12000)
			f.data = pattern(byte(step), n)
			write(t, fs, f.pn, 0, f.data)
			files = append(files, f)
		case op < 6 && len(files) > 0: // overwrite somewhere
			f := files[rng.Intn(len(files))]
			off := rng.Intn(len(f.data) + 1)
			n := 1 + rng.Intn(4000)
			data := pattern(byte(step+7), n)
			write(t, fs, f.pn, int64(off), data)
			if off+n > len(f.data) {
				f.data = append(f.data, make([]byte, off+n-len(f.data))...)
			}
			copy(f.data[off:], data)
		case op < 7 && len(files) > 0: // delete
			i := rng.Intn(len(files))
			if err := fs.Delete(files[i].pn); err != nil {
				t.Fatal(err)
			}
			files = append(files[:i], files[i+1:]...)
		case op < 8: // clean
			flushed()
			cleanPegasus(t, s, fs)
			if err := fs.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 9: // checkpoint + crash + recover
			checkpoint(t, s, fs)
			fs.Crash()
			recover2(t, s, fs)
		default: // verify a random file fully
			if len(files) > 0 {
				f := files[rng.Intn(len(files))]
				got := read(t, s, fs, f.pn, 0, len(f.data))
				if !bytes.Equal(got, f.data) {
					t.Fatalf("step %d: file %d diverged from model", step, f.pn)
				}
			}
		}
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Final full verification.
	for _, f := range files {
		got := read(t, s, fs, f.pn, 0, len(f.data))
		if !bytes.Equal(got, f.data) {
			t.Fatalf("final: file %d diverged from model", f.pn)
		}
	}
}
