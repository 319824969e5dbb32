package fileserver_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/fileserver"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/trace"
)

const segSize = 64 << 10

func newServer(s *sim.Sim, nseg int64) *fileserver.Server {
	arr := raid.New(s, disk.DefaultParams(), segSize, nseg)
	fs := lfs.New(s, arr, lfs.DefaultConfig(segSize))
	return fileserver.NewServer(s, fs)
}

func srvRead(t *testing.T, s *sim.Sim, sv *fileserver.Server, path string, off int64, n int) []byte {
	t.Helper()
	var out []byte
	var err error
	sv.Read(path, off, n, func(b []byte, e error) { out, err = b, e })
	s.Run()
	if err != nil {
		t.Fatalf("Read(%s): %v", path, err)
	}
	return out
}

func flush(t *testing.T, s *sim.Sim, sv *fileserver.Server) {
	t.Helper()
	var err error
	done := false
	sv.Flush(func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("Flush: done=%v err=%v", done, err)
	}
}

func srvRecover(t *testing.T, s *sim.Sim, sv *fileserver.Server) {
	t.Helper()
	var err error
	done := false
	sv.Recover(func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("Recover: done=%v err=%v", done, err)
	}
}

func pat(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*31)
	}
	return b
}

func TestCreateWriteRead(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 32)
	if err := sv.Create("/docs/paper.tex", false); err != nil {
		t.Fatal(err)
	}
	data := pat(1, 5000)
	if err := sv.Write("/docs/paper.tex", 0, data); err != nil {
		t.Fatal(err)
	}
	if got := srvRead(t, s, sv, "/docs/paper.tex", 0, 5000); !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if sz, _ := sv.Size("/docs/paper.tex"); sz != 5000 {
		t.Fatalf("size = %d", sz)
	}
}

func TestDuplicateCreateFails(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 32)
	sv.Create("/x", false)
	if err := sv.Create("/x", false); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestWriteBehindAbsorbsShortLivedData(t *testing.T) {
	// A file created, written and deleted inside the 30s window never
	// reaches the disk: zero log bytes, zero garbage.
	s := sim.New()
	sv := newServer(s, 32)
	sv.WriteDelay = 30 * sim.Second
	sv.Create("/tmp/scratch", false)
	sv.Write("/tmp/scratch", 0, pat(1, 10000))
	s.RunUntil(5 * sim.Second)
	if err := sv.Delete("/tmp/scratch"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if sv.FS().Stats.BytesAppended != 0 {
		t.Fatalf("log bytes = %d, want 0 (absorbed)", sv.FS().Stats.BytesAppended)
	}
	if sv.FS().Stats.GarbageBytes != 0 {
		t.Fatalf("garbage = %d, want 0", sv.FS().Stats.GarbageBytes)
	}
	if sv.Stats.AbsorbedFiles != 1 {
		t.Fatalf("absorbed files = %d", sv.Stats.AbsorbedFiles)
	}
}

func TestWriteBehindAppliesAfterWindow(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 32)
	sv.WriteDelay = 30 * sim.Second
	sv.Create("/data/keep", false)
	data := pat(3, 8000)
	sv.Write("/data/keep", 0, data)
	s.RunUntil(31 * sim.Second)
	if sv.FS().Stats.BytesAppended != 8000 {
		t.Fatalf("applied bytes = %d, want 8000", sv.FS().Stats.BytesAppended)
	}
	if got := srvRead(t, s, sv, "/data/keep", 0, 8000); !bytes.Equal(got, data) {
		t.Fatal("post-window content wrong")
	}
}

func TestWriteBehindOverlayRead(t *testing.T) {
	// Reads during the window see buffered data overlaid on logged data.
	s := sim.New()
	sv := newServer(s, 32)
	sv.WriteDelay = 10 * sim.Second
	sv.Create("/f", false)
	base := pat(1, 4000)
	sv.Write("/f", 0, base)
	s.RunUntil(11 * sim.Second) // applied
	sv.Write("/f", 1000, pat(9, 500))
	// Still buffered: read must show the overwrite.
	want := append([]byte(nil), base...)
	copy(want[1000:], pat(9, 500))
	if got := srvRead(t, s, sv, "/f", 0, 4000); !bytes.Equal(got, want) {
		t.Fatal("overlay read wrong")
	}
}

func TestBakerWorkloadWriteBehindVsWriteThrough(t *testing.T) {
	// E11's shape: on a Baker-like trace, 30s write-behind cuts both
	// log traffic and garbage creation by well over half.
	run := func(delay sim.Duration) (logBytes, garbage int64) {
		s := sim.New()
		sv := newServer(s, 512)
		sv.WriteDelay = delay
		ops := trace.Baker(sim.NewRand(99), trace.DefaultBaker(300))
		for _, op := range ops {
			op := op
			s.At(op.At, func() {
				switch op.Kind {
				case trace.OpCreate:
					sv.Create(op.Name, false)
				case trace.OpWrite:
					if !sv.Exists(op.Name) {
						sv.Create(op.Name, false)
					}
					sv.Write(op.Name, 0, make([]byte, op.Size))
				case trace.OpDelete:
					if sv.Exists(op.Name) {
						sv.Delete(op.Name)
					}
				}
			})
		}
		s.Run()
		return sv.FS().Stats.BytesAppended, sv.FS().Stats.GarbageEntries
	}
	throughLog, throughGarb := run(0)
	behindLog, behindGarb := run(30 * sim.Second)
	if behindLog >= throughLog/2 {
		t.Fatalf("write-behind log bytes %d not under half of write-through %d",
			behindLog, throughLog)
	}
	if behindGarb >= throughGarb {
		t.Fatalf("write-behind garbage %d not below write-through %d",
			behindGarb, throughGarb)
	}
}

func TestFlushThenCrashRecoverKeepsData(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 32)
	sv.WriteDelay = 30 * sim.Second
	sv.Create("/a", false)
	data := pat(5, 6000)
	sv.Write("/a", 0, data)
	flush(t, s, sv)
	sv.Crash()
	srvRecover(t, s, sv)
	if !sv.Exists("/a") {
		t.Fatal("file lost after flushed crash")
	}
	if got := srvRead(t, s, sv, "/a", 0, 6000); !bytes.Equal(got, data) {
		t.Fatal("data lost after flushed crash")
	}
}

func TestAgentReplayAfterServerCrash(t *testing.T) {
	// E12's first half: server dies with data still buffered; the
	// client agent holds the second copy and replays it.
	s := sim.New()
	sv := newServer(s, 32)
	sv.WriteDelay = 30 * sim.Second
	ag := fileserver.NewAgent(s, sv)

	data := pat(7, 9000)
	var werr error
	acked := false
	ag.Create("/vital", false, func(error) {})
	ag.Write("/vital", 0, data, func(e error) { werr = e; acked = true })
	s.RunUntil(sim.Second)
	if !acked || werr != nil {
		t.Fatalf("write not acked: %v", werr)
	}
	// Server crashes before the 30s window expires: buffer lost.
	sv.Crash()
	srvRecover(t, s, sv)
	if sv.Exists("/vital") {
		sz, _ := sv.Size("/vital")
		if sz != 0 {
			t.Fatal("server kept unflushed data through a crash; model too kind")
		}
	}
	// The agent replays from its copy.
	var rerr error
	rdone := false
	ag.Replay(func(e error) { rerr = e; rdone = true })
	s.Run()
	if !rdone || rerr != nil {
		t.Fatalf("replay: done=%v err=%v", rdone, rerr)
	}
	if got := srvRead(t, s, sv, "/vital", 0, 9000); !bytes.Equal(got, data) {
		t.Fatal("replayed data wrong: acknowledged write was lost")
	}
	if ag.Stats.Replays == 0 {
		t.Fatal("no replays counted")
	}
}

func TestAgentDropsCopiesAfterFlush(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 32)
	sv.WriteDelay = 30 * sim.Second
	ag := fileserver.NewAgent(s, sv)
	ag.Create("/x", false, func(error) {})
	ag.Write("/x", 0, pat(1, 1000), func(error) {})
	s.RunUntil(sim.Second)
	if ag.Buffered() == 0 {
		t.Fatal("agent holds no copies before flush")
	}
	flush(t, s, sv)
	if ag.Buffered() != 0 {
		t.Fatalf("agent still holds %d copies after flush", ag.Buffered())
	}
}

func TestDiskFailureDuringServiceLosesNothing(t *testing.T) {
	// E12's second half: RAID handles a disk death transparently.
	s := sim.New()
	sv := newServer(s, 32)
	sv.Create("/raid-test", false)
	data := pat(11, 20000)
	sv.Write("/raid-test", 0, data)
	flush(t, s, sv)
	sv.FS().Sim() // silence
	// Kill a data disk under the array.
	arr := svArray(sv)
	arr.FailDisk(2)
	if got := srvRead(t, s, sv, "/raid-test", 0, 20000); !bytes.Equal(got, data) {
		t.Fatal("data lost after single disk failure")
	}
}

// svArray digs the array out via the lfs stats interface. (The server
// API intentionally hides it; tests use the package wiring instead.)
func svArray(sv *fileserver.Server) *raid.Array { return sv.FS().Array() }

func TestRecorderAndPlayer(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	rec, err := sv.NewRecorder("/streams/clip")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate 10 frames, 3 payload appends each.
	var frameData [][]byte
	for f := 0; f < 10; f++ {
		var whole []byte
		for p := 0; p < 3; p++ {
			chunk := pat(byte(f*3+p), 700)
			if err := rec.Append(chunk); err != nil {
				t.Fatal(err)
			}
			whole = append(whole, chunk...)
		}
		rec.MarkFrame(uint32(f), uint64(f)*40_000_000)
		frameData = append(frameData, whole)
	}
	if rec.Frames() != 10 {
		t.Fatalf("recorded %d frames", rec.Frames())
	}
	if err := rec.Finalize(); err != nil {
		t.Fatal(err)
	}
	var player *fileserver.Player
	sv.OpenStream("/streams/clip", func(p *fileserver.Player, e error) {
		player, err = p, e
	})
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if player.Frames() != 10 {
		t.Fatalf("player sees %d frames", player.Frames())
	}
	// Random access by frame.
	for _, i := range []int{0, 7, 3} {
		var got []byte
		player.ReadFrame(i, func(b []byte, e error) { got, err = b, e })
		s.Run()
		if err != nil || !bytes.Equal(got, frameData[i]) {
			t.Fatalf("frame %d mismatch (err %v)", i, err)
		}
	}
	// Seek by time: 200ms -> frame 5.
	if i := player.SeekTime(200_000_000); i != 5 {
		t.Fatalf("SeekTime -> %d, want 5", i)
	}
	// Fast-forward every 3rd frame from 0: 0,3,6,9.
	ff := player.FastForward(0, 3)
	want := []int{0, 3, 6, 9}
	if len(ff) != len(want) {
		t.Fatalf("ff = %v", ff)
	}
	for i := range want {
		if ff[i] != want[i] {
			t.Fatalf("ff = %v, want %v", ff, want)
		}
	}
	// Reverse from frame 3: 3,2,1,0.
	rev := player.Reverse(3)
	if len(rev) != 4 || rev[0] != 3 || rev[3] != 0 {
		t.Fatalf("rev = %v", rev)
	}
}

func TestOpenStreamWithoutIndexFails(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 32)
	sv.Create("/raw", true)
	var err error
	sv.OpenStream("/raw", func(p *fileserver.Player, e error) { err = e })
	s.Run()
	if err == nil {
		t.Fatal("unindexed stream opened")
	}
}

func TestBakerGeneratorShortLifetimeFraction(t *testing.T) {
	ops := trace.Baker(sim.NewRand(1), trace.DefaultBaker(2000))
	frac := trace.ShortLivedFraction(ops, 30*sim.Second)
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("short-lived fraction = %.3f, want ~0.70", frac)
	}
}

func TestBakerDeterministic(t *testing.T) {
	a := trace.Baker(sim.NewRand(5), trace.DefaultBaker(100))
	b := trace.Baker(sim.NewRand(5), trace.DefaultBaker(100))
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic schedule")
		}
	}
}

func TestBakerOpsOrdered(t *testing.T) {
	ops := trace.Baker(sim.NewRand(2), trace.DefaultBaker(500))
	for i := 1; i < len(ops); i++ {
		if ops[i].At < ops[i-1].At {
			t.Fatal("ops not time-ordered")
		}
	}
}

// A read result may be a view of the disk, so pending write-behind
// pieces are laid over a private copy: the reader sees the buffered
// bytes, while the log — read directly — keeps the old ones until the
// write-behind window closes and the pieces are applied.
func TestOverlayLeavesTheLogAlone(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 32)
	sv.Create("/clip", true)
	old := pat(1, 8000)
	sv.Write("/clip", 0, old) // write-through: the server's first file
	var serr error
	sv.FS().Sync(func(e error) { serr = e })
	s.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	logRead := func() []byte {
		t.Helper()
		var out []byte
		var err error
		sv.FS().Read(lfs.FirstPnode, 0, len(old), func(b []byte, e error) { out, err = b, e })
		s.RunFor(sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sv.WriteDelay = 30 * sim.Second
	sv.Write("/clip", 100, pat(2, 50))
	want := append(append(append([]byte(nil), old[:100]...), pat(2, 50)...), old[150:]...)

	var got []byte
	sv.Read("/clip", 0, len(old), func(b []byte, err error) { got = b })
	s.RunFor(sim.Second)
	if !bytes.Equal(got, want) {
		t.Fatal("read does not see the buffered piece")
	}
	if !bytes.Equal(logRead(), old) {
		t.Fatal("overlaying the buffered piece wrote through to the log")
	}
	s.Run() // the write-behind window closes
	if !bytes.Equal(logRead(), want) {
		t.Fatal("applied piece missing from the log")
	}
}

// A write-behind buffer the log refuses is still the server's copy of
// acknowledged data: Flush reports the failure, keeps what it could not
// apply pending (reads still see it) and tells no agent to drop its copy —
// from the timer-driven drain as much as from Flush's own.
func TestFlushReportsWhatItCouldNotLog(t *testing.T) {
	for _, timerFirst := range []bool{false, true} {
		s := sim.New()
		sv := newServer(s, 6) // four 64 KiB log segments under 1.25 MiB of writes
		sv.WriteDelay = sim.Second
		notified := 0
		sv.SubscribeFlush(func(string) { notified++ })
		sv.Create("/big", false)
		var want []byte
		for i := 0; i < 40; i++ {
			p := pat(byte(i), 32<<10)
			want = append(want, p...)
			if err := sv.Write("/big", int64(i)*32<<10, p); err != nil {
				t.Fatal(err)
			}
		}
		if timerFirst {
			s.Run() // the window closes: the drain runs out of log on its own
		}
		var ferr error
		done := false
		sv.Flush(func(e error) { ferr, done = e, true })
		s.Run()
		if !done || !errors.Is(ferr, lfs.ErrNoSpace) {
			t.Fatalf("timerFirst=%v: Flush done=%v err=%v, want ErrNoSpace", timerFirst, done, ferr)
		}
		if notified != 0 {
			t.Fatalf("timerFirst=%v: %d flush notifications after a failed flush", timerFirst, notified)
		}
		if sv.Stats.AppliedBytes >= int64(len(want)) {
			t.Fatalf("applied %d of %d bytes: the log was meant to run out", sv.Stats.AppliedBytes, len(want))
		}
		if got := srvRead(t, s, sv, "/big", 0, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("timerFirst=%v: acknowledged bytes lost after the failed flush", timerFirst)
		}
	}
}

// The log keeps the slice it is handed (a continuous file's open segment
// is those bytes), so the entries whose callers may reuse their buffer —
// the io.Writer-style v-node layer and recorder, and a write-behind
// Server.Write — hand it a copy: scribbling on the buffer afterwards
// changes nothing, before the segment is sealed or after.
func TestEdgeWritersCopyOnce(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 32)
	want := pat(1, 20<<10)
	reused := make([]byte, len(want))
	scribble := func() {
		for i := range reused {
			reused[i] = 0xEE
		}
	}

	sv.Create("/vnode", true)
	v := fileserver.NewVNodeLayer(sv)
	fd, err := v.Open("/vnode", fileserver.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	copy(reused, want)
	if _, err := v.Write(fd, reused); err != nil {
		t.Fatal(err)
	}
	scribble()

	rec, err := sv.NewRecorder("/recorder")
	if err != nil {
		t.Fatal(err)
	}
	copy(reused, want)
	if err := rec.Append(reused); err != nil {
		t.Fatal(err)
	}
	scribble()

	sv.WriteDelay = sim.Second
	sv.Create("/behind", true)
	copy(reused, want)
	if err := sv.Write("/behind", 0, reused); err != nil {
		t.Fatal(err)
	}
	scribble()

	for _, when := range []string{"open segment", "sealed"} {
		for _, path := range []string{"/vnode", "/recorder", "/behind"} {
			if got := srvRead(t, s, sv, path, 0, len(want)); !bytes.Equal(got, want) {
				t.Errorf("%s, %s: the store kept the caller's buffer", path, when)
			}
		}
		flush(t, s, sv)
	}
}
