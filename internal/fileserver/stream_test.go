package fileserver_test

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/fileserver"
	"repro/internal/raid"
	"repro/internal/sim"
)

// cmRound is the scheduler period used throughout these tests: short
// enough to run many rounds quickly, and a whole number of 10 ms frame
// periods (100 Hz).
const cmRound = 200 * sim.Millisecond

// loadTitle formats a continuous file of n bytes onto the server's
// array and syncs the log so serving reads hit the platters.
func loadTitle(t *testing.T, s *sim.Sim, sv *fileserver.Server, name string, n int64) []byte {
	t.Helper()
	if err := sv.Create(name, true); err != nil {
		t.Fatalf("Create(%s): %v", name, err)
	}
	data := pat(byte(len(name)), int(n))
	if err := sv.Write(name, 0, data); err != nil {
		t.Fatalf("Write(%s): %v", name, err)
	}
	var serr error
	sv.FS().Sync(func(e error) { serr = e })
	s.Run()
	if serr != nil {
		t.Fatalf("Sync: %v", serr)
	}
	return data
}

// TestCMStreamServesOffTheDisks plays one admitted stream through the
// round scheduler at 100 Hz and proves the guarantee end to end: every
// frame is present and correct, no playout tick ever waited (zero
// underruns), no round overran, and the bytes really came off the
// striped disks rather than any in-memory path.
func TestCMStreamServesOffTheDisks(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	title := loadTitle(t, s, sv, "movie", 3*19200) // 3 rounds of 20×960 B

	svc := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound})
	defer svc.Stop()
	cm, err := svc.Admit("movie", 960, 100)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}

	const want = 100 // five rounds of playout, looping the title
	frames := 0
	var tick func()
	tick = func() {
		if frames >= want {
			return
		}
		b, ok := cm.NextFrame()
		if ok {
			off := (frames * 960) % len(title)
			if !bytes.Equal(b, title[off:off+960]) {
				t.Errorf("frame %d: payload differs from stored title", frames)
			}
			frames++
		}
		s.After(10*sim.Millisecond, tick)
	}
	cm.OnReady(tick)
	s.RunFor(cmRound + sim.Duration(want+1)*10*sim.Millisecond)

	if frames != want {
		t.Fatalf("played %d frames, want %d", frames, want)
	}
	if cm.Underruns != 0 || svc.Stats.Underruns != 0 {
		t.Fatalf("underruns: stream=%d service=%d, want 0", cm.Underruns, svc.Stats.Underruns)
	}
	if svc.Stats.RoundOverruns != 0 {
		t.Fatalf("round overruns: %d, want 0", svc.Stats.RoundOverruns)
	}
	arr := sv.FS().Array()
	var diskBytes int64
	for i := 0; i < raid.TotalDisks; i++ {
		diskBytes += arr.Disk(i).Stats.BytesRead
	}
	if diskBytes < int64(want)*960 {
		t.Fatalf("disks read %d bytes for %d frames — served from memory?", diskBytes, want)
	}
}

// TestCMAdmissionRefusesOverCommit fills the per-disk round budget and
// checks the refusal arrives at Admit time with exact accounting.
func TestCMAdmissionRefusesOverCommit(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	loadTitle(t, s, sv, "movie", 19200)

	svc := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound})
	defer svc.Stop()
	cost := svc.CostPerRound(19200)
	want := int(svc.Capacity() / cost)
	if want < 2 {
		t.Fatalf("test geometry admits only %d streams; broaden it", want)
	}
	admitted := 0
	for {
		_, err := svc.Admit("movie", 960, 100)
		if err != nil {
			if !errors.Is(err, fileserver.ErrOverCommit) {
				t.Fatalf("refusal is %v, want ErrOverCommit", err)
			}
			break
		}
		admitted++
		if admitted > want {
			t.Fatalf("admitted %d streams past the %d-stream budget", admitted, want)
		}
	}
	if admitted != want {
		t.Fatalf("admitted %d streams, budget holds %d", admitted, want)
	}
	if svc.Committed() != sim.Duration(admitted)*cost {
		t.Fatalf("committed %v, want %d × %v", svc.Committed(), admitted, cost)
	}
	if svc.Stats.Refused != 1 {
		t.Fatalf("refused = %d, want 1", svc.Stats.Refused)
	}
}

// TestCMBadStreamsRefused checks the shape constraints: unknown files,
// non-continuous files and ragged title lengths are not servable.
func TestCMBadStreamsRefused(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	loadTitle(t, s, sv, "movie", 19200)
	if err := sv.Create("plain", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Create("ragged", true); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("ragged", 0, make([]byte, 19201)); err != nil {
		t.Fatal(err)
	}

	svc := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound})
	defer svc.Stop()
	for _, path := range []string{"nosuch", "plain", "ragged"} {
		if _, err := svc.Admit(path, 960, 100); !errors.Is(err, fileserver.ErrBadStream) {
			t.Errorf("Admit(%s) = %v, want ErrBadStream", path, err)
		}
	}
	// 3 Hz does not divide a 200 ms round into whole frames.
	if _, err := svc.Admit("movie", 960, 3); !errors.Is(err, fileserver.ErrBadRound) {
		t.Errorf("Admit at 3 Hz = %v, want ErrBadRound", err)
	}
	if svc.Committed() != 0 {
		t.Fatalf("failed admissions leaked %v of budget", svc.Committed())
	}
}

// TestCMChurnReleasesBudgetExactly cycles admit → release → re-admit
// and checks the disk-time budget comes back to the exact same level
// every time — the storage mirror of netsig's teardown accounting.
func TestCMChurnReleasesBudgetExactly(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	loadTitle(t, s, sv, "movie", 19200)

	svc := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound})
	defer svc.Stop()
	base, err := svc.Admit("movie", 960, 100)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	level := svc.Committed()
	for cycle := 0; cycle < 5; cycle++ {
		cm, err := svc.Admit("movie", 960, 100)
		if err != nil {
			t.Fatalf("cycle %d admit: %v", cycle, err)
		}
		if svc.Committed() != level+cm.Cost() {
			t.Fatalf("cycle %d: committed %v, want %v", cycle, svc.Committed(), level+cm.Cost())
		}
		s.RunFor(cmRound / 2) // leave reads in flight across the release
		cm.Release()
		cm.Release() // idempotent
		if svc.Committed() != level {
			t.Fatalf("cycle %d: release left %v committed, want %v", cycle, svc.Committed(), level)
		}
	}
	base.Release()
	if svc.Committed() != 0 || svc.Open() != 0 {
		t.Fatalf("after full teardown: committed=%v open=%d, want 0/0", svc.Committed(), svc.Open())
	}
	if got := svc.Stats.Released; got != 6 {
		t.Fatalf("released = %d, want 6", got)
	}
}

// TestCMAdmissionInvariantProperty mirrors netsig's admission property
// at the disk layer: under any sequence of admits and releases the
// committed per-disk time never exceeds the budget or drops below
// zero, and releasing everything returns it to exactly zero.
func TestCMAdmissionInvariantProperty(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	loadTitle(t, s, sv, "movie", 19200)

	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		svc := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound})
		defer svc.Stop()
		var open []*fileserver.CMStream
		check := func() bool {
			return svc.Committed() >= 0 && svc.Committed() <= svc.Capacity()
		}
		for i := 0; i < int(nOps); i++ {
			switch rng.Intn(3) {
			case 0, 1: // admit (weighted: the common op)
				// Vary the rate so reservations differ in size; every
				// rate divides both the round and the title evenly.
				hz := []int{25, 50, 100}[rng.Intn(3)]
				if cm, err := svc.Admit("movie", 960, hz); err == nil {
					open = append(open, cm)
				}
			case 2:
				if len(open) > 0 {
					k := rng.Intn(len(open))
					open[k].Release()
					open = append(open[:k], open[k+1:]...)
				}
			}
			if !check() {
				return false
			}
		}
		for _, cm := range open {
			cm.Release()
		}
		return svc.Committed() == 0 && svc.Open() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCMOverCommitShowsAsOverrunsAndUnderruns is the ablation that
// justifies admission control: with the budget check disabled
// (Utilization far above 1) the same workload that Admit would have
// refused turns into round overruns and playout underruns.
func TestCMOverCommitShowsAsOverrunsAndUnderruns(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	loadTitle(t, s, sv, "movie", 19200)

	svc := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound, Utilization: 50})
	defer svc.Stop()
	var streams []*fileserver.CMStream
	for i := 0; i < 40; i++ {
		cm, err := svc.Admit("movie", 960, 100)
		if err != nil {
			t.Fatalf("over-committed service still refused stream %d: %v", i, err)
		}
		streams = append(streams, cm)
	}
	// Consume every stream at rate so the scheduler keeps fetching.
	for _, cm := range streams {
		cm := cm
		var tick func()
		tick = func() {
			cm.NextFrame()
			s.After(10*sim.Millisecond, tick)
		}
		cm.OnReady(tick)
	}
	s.RunFor(10 * cmRound)
	if svc.Stats.RoundOverruns == 0 {
		t.Fatal("40 streams on a ~5-stream array produced no round overruns")
	}
	if svc.Stats.Underruns == 0 {
		t.Fatal("over-committed disks produced no underruns — guarantee came from nowhere")
	}
}

// TestCMBestEffortFillsSlack checks that ordinary reads queued behind
// the guaranteed batch are served from round slack, unharmed.
func TestCMBestEffortFillsSlack(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	title := loadTitle(t, s, sv, "movie", 19200)

	svc := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound})
	defer svc.Stop()
	if _, err := svc.Admit("movie", 960, 100); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	got := 0
	for i := 0; i < 3; i++ {
		off := int64(i) * 4096
		svc.ReadBestEffort("movie", off, 4096, func(b []byte, err error) {
			if err != nil {
				t.Errorf("best-effort read: %v", err)
				return
			}
			if !bytes.Equal(b, title[off:off+4096]) {
				t.Errorf("best-effort read at %d returned wrong data", off)
			}
			got++
		})
	}
	if svc.BestEffortQueued() != 3 {
		t.Fatalf("queued = %d, want 3", svc.BestEffortQueued())
	}
	s.RunFor(4 * cmRound)
	if got != 3 || svc.Stats.BestEffortServed != 3 {
		t.Fatalf("served %d best-effort reads (stats %d), want 3", got, svc.Stats.BestEffortServed)
	}
	if svc.Stats.Underruns != 0 || svc.Stats.RoundOverruns != 0 {
		t.Fatalf("best-effort traffic disturbed the guarantee: underruns=%d overruns=%d",
			svc.Stats.Underruns, svc.Stats.RoundOverruns)
	}
}

// TestCacheHitAliasesTheWake: a RAM-tier hit hands the follower the
// wake window itself, not a copy of it. Two followers playing a
// resident title read the very same bytes — the stored title's — and
// rounds made of nothing but hits allocate far less than one window.
func TestCacheHitAliasesTheWake(t *testing.T) {
	const (
		fb, perRound = 960, 20
		window       = fb * perRound
	)
	s := sim.New()
	sv := newServer(s, 128)
	title := loadTitle(t, s, sv, "movie", 3*window)
	svc := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound, CacheBytes: 256 << 10})
	defer svc.Stop()

	// round plays one round of frames from every stream, checking each
	// against the stored title, and returns the first frame of each.
	pos := map[*fileserver.CMStream]int{}
	round := func(cms ...*fileserver.CMStream) [][]byte {
		first := make([][]byte, len(cms))
		for i, cm := range cms {
			for j := 0; j < perRound; j++ {
				frame, ok := cm.NextFrame()
				if !ok {
					t.Fatalf("stream %d underran at frame %d", i, j)
				}
				if !bytes.Equal(frame, title[pos[cm]:pos[cm]+fb]) {
					t.Fatalf("stream %d: frame at title offset %d differs from the stored bytes", i, pos[cm])
				}
				pos[cm] = (pos[cm] + fb) % len(title)
				if j == 0 {
					first[i] = frame
				}
			}
		}
		s.RunFor(cmRound)
		return first
	}

	lead, err := svc.Admit("movie", fb, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(cmRound)
	for i := 0; i < 4; i++ { // once round the title: every window is now resident
		round(lead)
	}
	lead.Release()
	a, err := svc.AdmitCached("movie", fb, 100)
	if err != nil {
		t.Fatalf("AdmitCached on a resident title: %v", err)
	}
	b, err := svc.AdmitCached("movie", fb, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(cmRound)

	const rounds = 12
	hits0, reads0 := svc.Stats.CacheHits, svc.Stats.GuaranteedReads
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		if first := round(a, b); &first[0][0] != &first[1][0] {
			t.Fatal("two followers at the same title offset hold different memory: a hit copied the window")
		}
	}
	runtime.ReadMemStats(&m1)
	hits := svc.Stats.CacheHits - hits0
	if hits != 2*rounds || svc.Stats.GuaranteedReads != reads0 {
		t.Fatalf("%d cache hits and %d disk reads in %d follower rounds, want %d and 0",
			hits, svc.Stats.GuaranteedReads-reads0, rounds, 2*rounds)
	}
	if perHit := (m1.TotalAlloc - m0.TotalAlloc) / uint64(hits); perHit > window/8 {
		t.Fatalf("%d bytes allocated per cache hit; a %d-byte window is being copied", perHit, window)
	}
}
