package fileserver_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// Property (the RAM-tier budget invariant): under any interleaving of
// disk admissions, cache admissions, releases, reshapes and passing
// rounds,
//
//   - a cache-served stream holds exactly zero disk round budget, and
//     only ever at full quality (degraded tiers never ride a wake);
//   - the committed disk time is always the sum of the open streams'
//     costs — promotion to the wake and demotion back to the disks
//     conserve the total, never double-charge or leak;
//   - the pinned wake bytes never exceed the cache capacity;
//   - releasing every stream returns the disk budget AND the pin
//     budget to zero (unpinned wake bytes may remain resident — they
//     are opportunistic, not promised).
func TestCMCacheBudgetConservationProperty(t *testing.T) {
	const (
		fb, hz   = 960, 100
		titleLen = 3 * 19200 // 3 rounds of 20×960 B at cmRound
	)
	titles := []string{"wa", "wb"}
	prop := func(seed int64, nOps uint8, tinyCache bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		sv := newServer(s, 128)
		for _, name := range titles {
			loadTitle(t, s, sv, name, titleLen)
		}
		cacheBytes := int64(256 << 10)
		if tinyCache {
			// Smaller than two resident titles: the pin guard must refuse
			// some followers instead of promising wake it cannot keep.
			cacheBytes = 64 << 10
		}
		svc := fileserver.NewCMService(sv, fileserver.CMConfig{
			Round:      cmRound,
			CacheBytes: cacheBytes,
		})
		defer svc.Stop()

		var open []*fileserver.CMStream
		consistent := func() bool {
			var sum sim.Duration
			for _, cm := range open {
				if cm.CacheServed() &&
					(cm.Cost() != 0 || cm.FrameBytes() != cm.FullFrameBytes()) {
					return false
				}
				sum += cm.Cost()
			}
			if svc.Committed() != sum {
				return false
			}
			if svc.Committed() < 0 || svc.Committed() > svc.Capacity() {
				return false
			}
			if svc.CachePinned() < 0 || svc.CachePinned() > svc.CacheCapacity() {
				return false
			}
			return true
		}

		for i := 0; i < int(nOps); i++ {
			switch rng.Intn(6) {
			case 0, 1: // leader: admit off the disks
				cm, err := svc.Admit(titles[rng.Intn(len(titles))], fb, hz)
				if err == nil {
					open = append(open, cm)
				} else if !errors.Is(err, fileserver.ErrOverCommit) {
					return false // well-formed titles refuse only on budget
				}
			case 2: // follower: admit off the wake
				cm, err := svc.AdmitCached(titles[rng.Intn(len(titles))], fb, hz)
				if err == nil {
					open = append(open, cm)
				} else if !errors.Is(err, fileserver.ErrNoWake) {
					return false // cold/unpinnable wakes are the only refusal
				}
			case 3: // release (a closed leader demotes its followers)
				if len(open) > 0 {
					k := rng.Intn(len(open))
					open[k].Release()
					open = append(open[:k], open[k+1:]...)
				}
			case 4: // reshape (a cache-served stream demotes to disk first)
				if len(open) > 0 {
					cm := open[rng.Intn(len(open))]
					tiers := []int{fb, fb / 2, fb / 4}
					err := svc.Reshape(cm, tiers[rng.Intn(len(tiers))], hz)
					if err != nil && !errors.Is(err, fileserver.ErrOverCommit) {
						return false
					}
				}
			case 5: // rounds pass: wakes fill, demotions fire, evictions run
				s.RunFor(sim.Duration(rng.Intn(4)+1) * cmRound)
			}
			if !consistent() {
				return false
			}
		}
		for _, cm := range open {
			cm.Release()
		}
		return svc.Committed() == 0 && svc.CachePinned() == 0
	}
	// Pinned: a feeder's release widened a follower's protect span past
	// the tiny cache's capacity (96 000 bytes pinned in 65 536).
	if !prop(1365551179408480162, 0x56, true) {
		t.Fatal("pinned case (1365551179408480162, 0x56, true) broke the budget invariant")
	}
	cfg := testutil.Quick(t, 80)
	if testing.Short() {
		cfg.MaxCount = 25
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Fits is the disk admission rule, not a copy of it. Under
// any interleaving of disk admissions (full and degraded), cache
// admissions, reshapes, releases and passing rounds, the predicate's
// verdict before each AdmitDegraded and Reshape equals the op's
// outcome — a degraded admit is charged its served tier, a reshape of a
// disk-backed stream its cost difference, a reshape off the RAM tier
// its whole cost — a refusal is counted exactly once, and evaluating
// the predicate moves no counter.
func TestCMFitsMatchesAdmitProperty(t *testing.T) {
	const (
		fb, hz   = 960, 100
		titleLen = 3 * 19200 // 3 rounds of 20×960 B at cmRound
	)
	tiers := []int{fb, fb / 2, fb / 4}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		sv := newServer(s, 128)
		loadTitle(t, s, sv, "w", titleLen)
		svc := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound, CacheBytes: 256 << 10})
		defer svc.Stop()
		fits := func(cost sim.Duration) bool {
			stats := svc.Stats
			ok := svc.Fits(cost)
			return ok && svc.Stats == stats
		}
		// agrees checks an op's outcome and refusal counter against the
		// verdict.
		agrees := func(want bool, err error, before, after int64) bool {
			if want {
				return err == nil && after == before
			}
			return errors.Is(err, fileserver.ErrOverCommit) && after == before+1
		}
		var open []*fileserver.CMStream
		for i := 0; i < 120; i++ {
			serve := tiers[rng.Intn(len(tiers))]
			cost, err := svc.StreamCost(serve, hz)
			if err != nil {
				return false
			}
			refused, reshapeRefused := svc.Stats.Refused, svc.Stats.ReshapeRefused
			switch op := rng.Intn(6); {
			case op <= 1: // admit off the disks at a random tier
				want := fits(cost)
				cm, err := svc.AdmitDegraded("w", fb, serve, hz)
				if !agrees(want, err, refused, svc.Stats.Refused) {
					return false
				}
				if err == nil {
					open = append(open, cm)
				}
			case op == 2: // follower: admit off the wake when one is warm
				if cm, err := svc.AdmitCached("w", fb, hz); err == nil {
					open = append(open, cm)
				}
			case len(open) == 0:
			case op == 3: // reshape: off the RAM tier, or by the difference
				cm := open[rng.Intn(len(open))]
				need := cost - cm.Cost()
				if cm.CacheServed() {
					need = cost
				}
				want := fits(need)
				err := svc.Reshape(cm, serve, hz)
				if !agrees(want, err, reshapeRefused, svc.Stats.ReshapeRefused) {
					return false
				}
			case op == 4:
				k := rng.Intn(len(open))
				open[k].Release()
				open = append(open[:k], open[k+1:]...)
			default: // rounds pass: wakes fill, demotions fire
				s.RunFor(sim.Duration(rng.Intn(3)+1) * cmRound)
			}
		}
		for _, cm := range open {
			cm.Release()
		}
		return svc.Committed() == 0
	}
	if err := quick.Check(prop, testutil.Quick(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// A cache refusal that only a boolean or errors.Is reads is never
// formatted: the probe of a cold wake and the cache-first admit on a
// service without a RAM tier allocate nothing, and the refusals still
// read as before when printed.
func TestCacheRefusalsAllocateNothing(t *testing.T) {
	const fb, hz = 960, 100
	s := sim.New()
	sv := newServer(s, 128)
	loadTitle(t, s, sv, "cold", 3*19200)
	cached := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound, CacheBytes: 256 << 10})
	defer cached.Stop()
	plain := fileserver.NewCMService(sv, fileserver.CMConfig{Round: cmRound})
	defer plain.Stop()

	if a := testing.AllocsPerRun(100, func() { cached.CanServeCached("cold", fb, hz) }); a != 0 {
		t.Errorf("CanServeCached of a cold wake: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = plain.AdmitCached("cold", fb, hz) }); a != 0 {
		t.Errorf("AdmitCached without a RAM tier: %v allocations, want 0", a)
	}
	for _, c := range []struct {
		svc  *fileserver.CMService
		want string
	}{
		{cached, "fileserver: no cached wake can serve the stream: cold: wake not resident"},
		{plain, "fileserver: no cached wake can serve the stream: interval caching disabled"},
	} {
		_, err := c.svc.AdmitCached("cold", fb, hz)
		if !errors.Is(err, fileserver.ErrNoWake) || err.Error() != c.want {
			t.Errorf("AdmitCached refused with %v, want %q", err, c.want)
		}
	}
}
