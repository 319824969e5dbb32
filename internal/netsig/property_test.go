package netsig_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/atm"
	"repro/internal/fabric"
	"repro/internal/netsig"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// Property: under any sequence of establishes, branch joins and
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
					_ = m.JoinTree(ids[rng.Intn(len(ids))], rng.Intn(ports))
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

// Property: LinkFits and UplinkFits are the admission rules, not a
// copy of them. Under any random trace of Establish, EstablishTree,
// JoinTree, LeaveTree, ModifyRate and TearDown — with uplink budgeting
// on and off — the predicates' verdict before each admitting op equals
// the op's outcome, a refusal is counted exactly once, and evaluating a
// predicate moves neither Refused nor Established.
func TestRulePredicatesMatchAdmitsProperty(t *testing.T) {
	const ports = 5
	const linkRate = 100
	prop := func(seed int64, uplink bool) bool {
		rng := rand.New(rand.NewSource(seed))
		sw := fabric.NewSwitch(sim.New(), "prop", ports, 0)
		m := netsig.NewManager(sw, linkRate)
		if uplink {
			m.EnableUplinkAdmission()
		}
		var open []*netsig.Circuit
		// fits evaluates the predicates for rate on in (uplink, when
		// charged) and outs, checking that doing so holds nothing.
		fits := func(in int, outs []int, rate int64, charged bool) bool {
			refused, established := m.Refused, m.Established
			ok := !charged || m.UplinkFits(in, rate)
			for _, p := range outs {
				ok = ok && m.LinkFits(p, rate)
			}
			return ok && m.Refused == refused && m.Established == established
		}
		// agrees checks an admitting op's outcome against the verdict.
		agrees := func(want bool, refusedBefore int64, err error) bool {
			if want {
				return err == nil && m.Refused == refusedBefore
			}
			return errors.Is(err, netsig.ErrAdmission) && m.Refused == refusedBefore+1
		}
		for i := 0; i < 200; i++ {
			rate := int64(1 + rng.Intn(60))
			in := rng.Intn(ports)
			refused := m.Refused
			switch op := rng.Intn(7); {
			case op == 0: // point-to-multipoint circuit to distinct leaves
				outs := rng.Perm(ports)[:1+rng.Intn(2)]
				want := fits(in, outs, rate, uplink)
				c, err := m.Establish(in, outs, rate, false)
				if !agrees(want, refused, err) {
					return false
				}
				if err == nil {
					open = append(open, c)
				}
			case op == 1: // a tree with no branches yet
				want := fits(in, nil, rate, uplink)
				c, err := m.EstablishTree(in, rate)
				if !agrees(want, refused, err) {
					return false
				}
				if err == nil {
					open = append(open, c)
				}
			case op == 6: // a leaf named twice: refused up front, holding and counting nothing
				p := rng.Intn(ports)
				outs := append(rng.Perm(ports)[:rng.Intn(2)], p)
				outs = append(outs, outs[rng.Intn(len(outs))])
				snapshot := func() (s []int64) {
					for q := 0; q < ports; q++ {
						s = append(s, m.Committed(q), m.CommittedUplink(q))
					}
					return append(s, m.Refused, m.Established)
				}
				before := snapshot()
				c, err := m.Establish(in, outs, rate, false)
				if c != nil || err == nil || errors.Is(err, netsig.ErrAdmission) || !slices.Equal(snapshot(), before) {
					return false
				}
			case len(open) == 0:
			case op == 2: // join a branch that is not one yet
				c, p := open[rng.Intn(len(open))], rng.Intn(ports)
				if slices.Contains(c.OutPorts, p) {
					continue
				}
				want := fits(c.InPort, []int{p}, c.PeakRate, false)
				if !agrees(want, refused, m.JoinTree(c.ID, p)) {
					return false
				}
			case op == 3: // leave a branch
				c := open[rng.Intn(len(open))]
				if len(c.OutPorts) > 0 && m.LeaveTree(c.ID, c.OutPorts[rng.Intn(len(c.OutPorts))]) != nil {
					return false
				}
			case op == 4: // renegotiate; only a grow is admitted
				c := open[rng.Intn(len(open))]
				delta := rate - c.PeakRate
				want := delta <= 0 || fits(c.InPort, c.OutPorts, delta, uplink)
				if !agrees(want, refused, m.ModifyRate(c.ID, rate)) {
					return false
				}
			default: // tear down
				k := rng.Intn(len(open))
				if m.TearDown(open[k].ID) != nil {
					return false
				}
				open = append(open[:k], open[k+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.Quick(t, 100)); err != nil {
		t.Fatal(err)
	}
}
