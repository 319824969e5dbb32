package netsig_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/atm"
	"repro/internal/fabric"
	"repro/internal/netsig"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// Property: under any sequence of establishes, leaf additions and
// teardowns, no output port is ever committed beyond its capacity or
// below zero, and tearing every circuit down returns every port to
// zero — the invariant that lets the network promise latency bounds.
func TestAdmissionInvariantProperty(t *testing.T) {
	const ports = 8
	const linkRate = 100_000_000
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		sw := fabric.NewSwitch(s, "prop", ports, 0)
		m := netsig.NewManager(sw, linkRate)
		var ids []int
		check := func() bool {
			for p := 0; p < ports; p++ {
				if m.Committed(p) < 0 || m.Committed(p) > linkRate {
					return false
				}
			}
			return true
		}
		for i := 0; i < int(nOps); i++ {
			switch rng.Intn(4) {
			case 0, 1: // establish (weighted: the common op)
				in := rng.Intn(ports)
				out := []int{rng.Intn(ports)}
				rate := int64(rng.Intn(linkRate * 3 / 4))
				if c, err := m.Establish(in, out, rate, false); err == nil {
					ids = append(ids, c.ID)
				}
			case 2:
				if len(ids) > 0 {
					_ = m.AddLeaf(ids[rng.Intn(len(ids))], rng.Intn(ports))
				}
			case 3:
				if len(ids) > 0 {
					k := rng.Intn(len(ids))
					if m.TearDown(ids[k]) != nil {
						return false
					}
					ids = append(ids[:k], ids[k+1:]...)
				}
			}
			if !check() {
				return false
			}
		}
		for _, id := range ids {
			if m.TearDown(id) != nil {
				return false
			}
		}
		for p := 0; p < ports; p++ {
			if m.Committed(p) != 0 {
				return false
			}
		}
		return m.Open() == 0
	}
	if err := quick.Check(prop, testutil.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// Property: under any random trace of tree establishes, joins, leaves,
// rate renegotiations (the subtree degrade/restore ladder) and
// teardowns — with uplink budgeting on — every output port's committed
// budget always equals the sum of the live trees' rates over their
// live branches, the source uplink always equals the sum of the live
// trees' rates rooted there, nothing is ever over-committed, and
// tearing everything down leaves exactly zero everywhere (trunk-budget
// conservation across the metro tier is pinned by the metro broadcast
// tests, which drive these verbs through a JoinTier).
func TestTreeBudgetConservationProperty(t *testing.T) {
	const ports = 6
	const linkRate = 100_000_000
	type tree struct {
		id, in   int
		vci      atm.VCI
		rate     int64
		branches []int
	}
	prop := func(seed int64, nOps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		sw := fabric.NewSwitch(s, "prop", ports, 0)
		m := netsig.NewManager(sw, linkRate)
		m.EnableUplinkAdmission()
		var trees []*tree
		check := func() bool {
			wantOut := make([]int64, ports)
			wantIn := make([]int64, ports)
			for _, tr := range trees {
				wantIn[tr.in] += tr.rate
				for _, p := range tr.branches {
					wantOut[p] += tr.rate
				}
				if sw.Leaves(tr.in, tr.vci) != len(tr.branches) {
					return false
				}
			}
			for p := 0; p < ports; p++ {
				if m.Committed(p) != wantOut[p] || m.CommittedUplink(p) != wantIn[p] {
					return false
				}
				if m.Committed(p) > m.Capacity(p) || m.CommittedUplink(p) > m.UplinkCapacity(p) {
					return false
				}
			}
			return true
		}
		for i := 0; i < int(nOps)%512; i++ {
			switch rng.Intn(5) {
			case 0: // establish a fresh tree
				in := rng.Intn(ports)
				rate := int64(1+rng.Intn(40)) * 1_000_000
				if c, err := m.EstablishTree(in, rate); err == nil {
					trees = append(trees, &tree{id: c.ID, in: in, vci: c.VCI, rate: rate})
				}
			case 1: // join a branch
				if len(trees) > 0 {
					tr := trees[rng.Intn(len(trees))]
					p := rng.Intn(ports)
					dup := false
					for _, b := range tr.branches {
						dup = dup || b == p
					}
					err := m.JoinTree(tr.id, p)
					if dup && err == nil {
						return false // duplicate branch must refuse
					}
					if err == nil {
						tr.branches = append(tr.branches, p)
					}
				}
			case 2: // leave a branch
				if len(trees) > 0 {
					tr := trees[rng.Intn(len(trees))]
					if len(tr.branches) > 0 {
						k := rng.Intn(len(tr.branches))
						if m.LeaveTree(tr.id, tr.branches[k]) != nil {
							return false
						}
						tr.branches = append(tr.branches[:k], tr.branches[k+1:]...)
					}
				}
			case 3: // renegotiate: degrade to a fraction or climb back
				if len(trees) > 0 {
					tr := trees[rng.Intn(len(trees))]
					newRate := tr.rate / int64(1+rng.Intn(3))
					if rng.Intn(2) == 0 {
						newRate = tr.rate * 2
					}
					if m.ModifyRate(tr.id, newRate) == nil {
						tr.rate = newRate
					}
				}
			case 4: // tear a whole tree down
				if len(trees) > 0 {
					k := rng.Intn(len(trees))
					if m.TearDown(trees[k].id) != nil {
						return false
					}
					trees = append(trees[:k], trees[k+1:]...)
				}
			}
			if !check() {
				return false
			}
		}
		for _, tr := range trees {
			if m.TearDown(tr.id) != nil {
				return false
			}
		}
		for p := 0; p < ports; p++ {
			if m.Committed(p) != 0 || m.CommittedUplink(p) != 0 {
				return false
			}
		}
		return m.Open() == 0 && sw.RouteEntries() == 0
	}
	if err := quick.Check(prop, testutil.Quick(t, 150)); err != nil {
		t.Fatal(err)
	}
}
