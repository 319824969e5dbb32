package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// Property (the probe/admission equivalence, cache leg included): on a
// cache-enabled node whose disk budget one full-quality stream fills,
// over any trace of Guaranteed opens, closes and passing rounds,
//
//   - Probe(spec).OK agrees exactly with OpenSession(spec) at the
//     probed instant, and when both admit, the report's CacheServed
//     matches the session's — a follower the probe promised the RAM
//     tier really rides it, holding zero disk round budget;
//   - no budget (downlink, uplink, disk, cache pins) is ever committed
//     beyond its capacity or below zero, including across leader
//     closes, which demote followers back onto the disks;
//   - closing every session returns link, uplink, disk AND pin budgets
//     to exactly zero.
func TestProbeCacheEquivalenceProperty(t *testing.T) {
	const viewers, titles = 4, 3
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		site, ss, eps := cacheSessionSite(t, viewers, titles, 1<<20)
		m := site.Signalling

		budgetsOK := func() bool {
			for _, ep := range eps {
				if c := m.Committed(ep.Port); c < 0 || c > m.Capacity(ep.Port) {
					return false
				}
			}
			if up := m.CommittedUplink(ss.Net.Port); up < 0 || up > m.UplinkCapacity(ss.Net.Port) {
				return false
			}
			if cm := ss.CM; cm.Committed() < 0 || cm.Committed() > cm.Capacity() {
				return false
			}
			if p := ss.CM.CachePinned(); p < 0 || p > ss.CM.CacheCapacity() {
				return false
			}
			return true
		}

		var open []*core.Session
		for i := 0; i < int(nOps); i++ {
			switch rng.Intn(5) {
			case 0, 1: // probe, then open: verdicts must agree
				sp := spec(ss, eps[rng.Intn(viewers)], core.Guaranteed,
					fmt.Sprintf("title%d", rng.Intn(titles)))
				r := site.Probe(sp)
				s, err := site.OpenSession(sp)
				if (err == nil) != r.OK {
					t.Logf("probe OK=%v but OpenSession err=%v", r.OK, err)
					return false
				}
				if err == nil {
					if r.CacheServed() != s.CacheServed() {
						t.Logf("probe CacheServed=%v, session=%v", r.CacheServed(), s.CacheServed())
						return false
					}
					if s.CacheServed() && s.CM().Cost() != 0 {
						t.Logf("cache-served session holds %v disk time", s.CM().Cost())
						return false
					}
					open = append(open, s)
				}
			case 2: // close (a leader's close demotes its followers)
				if len(open) > 0 {
					k := rng.Intn(len(open))
					open[k].Close()
					open = append(open[:k], open[k+1:]...)
				}
			case 3, 4: // rounds pass: the leader's wake becomes resident
				site.Sim.RunFor(sim.Duration(rng.Intn(3)+1) * sRound)
			}
			if !budgetsOK() {
				t.Logf("budgets out of range after op %d", i)
				return false
			}
		}
		for _, s := range open {
			s.Close()
		}
		for _, ep := range eps {
			if m.Committed(ep.Port) != 0 {
				return false
			}
		}
		if m.CommittedUplink(ss.Net.Port) != 0 {
			return false
		}
		if ss.CM.Committed() != 0 || ss.CM.CachePinned() != 0 {
			t.Logf("disk=%v pinned=%d after closing all",
				ss.CM.Committed(), ss.CM.CachePinned())
			return false
		}
		return true
	}
	cfg := testutil.Quick(t, 30)
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestProbeCacheFollowerSkipsDisk pins the tentpole scenario end to
// end: a leader fills the disk budget, a round passes so its wake is
// deep enough, and a second viewer — whom disk admission must refuse —
// is then admitted cache-served with the disk budget untouched.
// Closing the leader strands the follower (the title is deliberately
// bigger than the cache, so it cannot ride a resident copy): the
// follower demotes onto the budget the leader just returned,
// conserving the committed total. (A title that fits wholly in RAM
// needs no demotion — its followers keep streaming from the resident
// copy; cacheSessionSite's titles are that case.)
func TestProbeCacheFollowerSkipsDisk(t *testing.T) {
	const titleRounds = 4
	roundBytes := int64(sFrameHz) * int64(sRound) / int64(sim.Second) * sFrameBytes
	cfg := core.DefaultSiteConfig()
	cfg.Ports = 3
	site := core.NewSite(cfg)
	site.Signalling.EnableUplinkAdmission()
	ss := site.NewStorageServer("vod", 64<<10, 64)
	eps := []*core.Endpoint{site.Attach("viewer0"), site.Attach("viewer1")}
	if err := ss.Server.Create("title0", true); err != nil {
		t.Fatal(err)
	}
	if err := ss.Server.Write("title0", 0, make([]byte, titleRounds*roundBytes)); err != nil {
		t.Fatal(err)
	}
	ss.Server.FS().Sync(func(err error) {
		if err != nil {
			t.Errorf("preload sync: %v", err)
		}
	})
	site.Sim.Run()
	// Three of the title's four rounds fit: followers must trail a live
	// leader (Plan A); resident mode can never carry them.
	ss.EnableCM(fileserver.CMConfig{Round: sRound, CacheBytes: 3 * roundBytes})

	lead, err := site.OpenSession(spec(ss, eps[0], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatalf("leader open: %v", err)
	}
	if lead.CacheServed() {
		t.Fatal("leader claims to be cache-served with a cold cache")
	}
	diskHeld := ss.CM.Committed()
	if diskHeld == 0 {
		t.Fatal("leader holds no disk budget")
	}

	// Before the leader's first window lands the wake is cold: the probe
	// must refuse, and on the disk leg.
	r := site.Probe(spec(ss, eps[1], core.Guaranteed, "title0"))
	if r.OK || r.FirstRefusal != core.LegDisk {
		t.Fatalf("cold-cache probe: OK=%v FirstRefusal=%v, want disk refusal", r.OK, r.FirstRefusal)
	}

	site.Sim.RunFor(2 * sRound) // the leader's first windows land in the wake
	r = site.Probe(spec(ss, eps[1], core.Guaranteed, "title0"))
	if !r.OK || !r.CacheServed() {
		t.Fatalf("warm-cache probe: OK=%v CacheServed=%v, want cache-served admit", r.OK, r.CacheServed())
	}
	fol, err := site.OpenSession(spec(ss, eps[1], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatalf("follower open: %v", err)
	}
	if !fol.CacheServed() {
		t.Fatal("follower not cache-served")
	}
	if got := ss.CM.Committed(); got != diskHeld {
		t.Fatalf("follower moved the disk budget: %v -> %v", diskHeld, got)
	}

	// Leader closes: with no resident copy to fall back on, the follower
	// must demote onto the freed budget and keep streaming off the disks.
	lead.Close()
	if fol.CacheServed() {
		t.Fatal("follower still cache-served after its leader closed")
	}
	if got := ss.CM.Committed(); got != diskHeld {
		t.Fatalf("demotion changed the committed total: %v -> %v", diskHeld, got)
	}
	fol.Close()
	if ss.CM.Committed() != 0 || ss.CM.CachePinned() != 0 {
		t.Fatalf("budgets nonzero after close-all: disk=%v pinned=%d",
			ss.CM.Committed(), ss.CM.CachePinned())
	}
}

// TestReshapeOffRAMTierTracesDemotion: a renegotiation that moves a
// cache-served follower onto the disks is a demotion like any other —
// the trace records a "demoted" event carrying the session's id, just
// as it does when the follower's wake evaporates.
func TestReshapeOffRAMTierTracesDemotion(t *testing.T) {
	site, ss, eps := cacheSessionSite(t, 2, 1, 1<<20)
	tr := site.EnableTrace()
	lead, err := site.OpenSession(spec(ss, eps[0], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatalf("leader open: %v", err)
	}
	defer lead.Close()
	site.Sim.RunFor(2 * sRound) // the leader's first windows land in the wake
	fol, err := site.OpenSession(spec(ss, eps[1], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatalf("follower open: %v", err)
	}
	if !fol.CacheServed() {
		t.Fatal("follower not cache-served")
	}
	// The leader leaves too little disk budget for the follower at half
	// rate; its floor tier fits.
	if err := fol.Renegotiate(sPeakRate / 4); err != nil {
		t.Fatalf("renegotiate off the RAM tier: %v", err)
	}
	if fol.CacheServed() {
		t.Fatal("follower still cache-served at its floor tier")
	}
	for _, ev := range tr.Events() {
		if ev.Event == "demoted" && ev.Session == int64(fol.ID()) {
			return
		}
	}
	t.Fatalf("no demoted event for session %d in the trace", fol.ID())
}
