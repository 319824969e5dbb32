package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/testutil"
)

// Property (the stream-plane admission invariant): over any random
// trace of open / renegotiate / degrade / restore / close across the
// QoS classes,
//
//   - no output link, no uplink and no disk budget is ever committed
//     beyond its capacity or below zero;
//   - shrinking renegotiation (newRate <= current rate) never fails;
//   - no open session sits below its degradation floor;
//   - closing every session returns every budget to exactly zero.
func TestSessionTraceInvariantProperty(t *testing.T) {
	const viewers, titles = 4, 3
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		site, ss, eps := sessionSite(t, viewers, titles)
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
			return true
		}

		var open []*core.Session
		for i := 0; i < int(nOps); i++ {
			switch rng.Intn(6) {
			case 0, 1: // open (weighted: the common op)
				class := []core.QoSClass{core.Guaranteed, core.Adaptive, core.Adaptive}[rng.Intn(3)]
				sp := spec(ss, eps[rng.Intn(viewers)], class, fmt.Sprintf("title%d", rng.Intn(titles)))
				if rng.Intn(4) == 0 { // sometimes link-only
					sp.CM, sp.Title, sp.FrameBytes, sp.FrameHz = nil, "", 0, 0
				}
				if s, err := site.OpenSession(sp); err == nil {
					open = append(open, s)
				}
			case 2: // shrink renegotiation: must never fail
				if len(open) > 0 {
					s := open[rng.Intn(len(open))]
					if r := s.Rate(); r > 1 {
						shrink := r - rng.Int63n(r/2+1)
						if err := s.Renegotiate(shrink); err != nil {
							t.Logf("shrink %d -> %d failed: %v", r, shrink, err)
							return false
						}
					}
				}
			case 3: // grow renegotiation: may refuse, must not corrupt
				if len(open) > 0 {
					s := open[rng.Intn(len(open))]
					_ = s.Renegotiate(s.FullRate())
				}
			case 4: // degrade / restore
				if len(open) > 0 {
					s := open[rng.Intn(len(open))]
					if rng.Intn(2) == 0 {
						_ = s.Degrade(0.3 + 0.6*rng.Float64())
					} else {
						_ = s.Restore()
					}
				}
			case 5: // close
				if len(open) > 0 {
					k := rng.Intn(len(open))
					open[k].Close()
					open = append(open[:k], open[k+1:]...)
				}
			}
			if !budgetsOK() {
				t.Logf("budgets over-committed after op %d", i)
				return false
			}
			for _, s := range open {
				floor := s.Spec().MinRateFrac
				if floor == 0 {
					floor = core.DefaultMinRateFrac
				}
				if s.Factor() < floor {
					t.Logf("session %d below its floor: %g", s.ID(), s.Factor())
					return false
				}
			}
		}
		for _, s := range open {
			s.Close()
		}
		for _, ep := range eps {
			if m.Committed(ep.Port) != 0 {
				t.Logf("port %d committed %d after closing all", ep.Port, m.Committed(ep.Port))
				return false
			}
		}
		if m.CommittedUplink(ss.Net.Port) != 0 || ss.CM.Committed() != 0 {
			t.Logf("uplink/disk budget nonzero after closing all")
			return false
		}
		return true
	}
	cfg := testutil.Quick(t, 25)
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
