package vodsite_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/testutil"
	"repro/internal/vodsite"
)

// Property (the site-level admission invariant, mirroring the netsig
// and CM churn properties): under any sequence of admissions and
// releases across replicated titles,
//
//   - the site never admits a stream that every individual replica
//     would refuse, and never refuses while some replica has both link
//     and disk budget — Admit succeeds exactly when Probe reports OK,
//     and a refusing report names a refusing leg with its headroom
//     fractions in range;
//   - no node's disk time or uplink rate is ever committed beyond its
//     capacity or below zero;
//   - releasing every stream returns every budget to zero.
func TestSiteAdmissionInvariantProperty(t *testing.T) {
	const nodes, viewers, titles = 3, 6, 5
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		siteCfg := core.DefaultSiteConfig()
		siteCfg.Ports = nodes + viewers
		site := core.NewSite(siteCfg)
		ctrl := vodsite.New(site, vodsite.Config{
			PeakRate:            peakRate,
			BaseReplicas:        1 + rng.Intn(2),
			ReplicationDisabled: true, // admission algebra only
		})
		for i := 0; i < nodes; i++ {
			ctrl.AddNode(site.NewStorageServer("n", 256<<10, int64(titles*4+16)))
		}
		var ports []int
		for i := 0; i < viewers; i++ {
			ports = append(ports, site.Attach("v").Port)
		}
		for i := 0; i < titles; i++ {
			ctrl.AddTitle(titleName(i), titleBytes(), frameBytes, frameHz)
		}
		if ctrl.Place() != nil {
			return false
		}
		site.Sim.Run()
		ctrl.Start(fileserver.CMConfig{Round: round})

		budgetsOK := func() bool {
			for _, n := range ctrl.Nodes() {
				cm := n.SS.CM
				if cm.Committed() < 0 || cm.Committed() > cm.Capacity() {
					return false
				}
				p := n.SS.Net.Port
				up := site.Signalling.CommittedUplink(p)
				if up < 0 || up > site.Signalling.UplinkCapacity(p) {
					return false
				}
			}
			return true
		}

		var open []*vodsite.Stream
		for i := 0; i < int(nOps); i++ {
			switch rng.Intn(3) {
			case 0, 1: // admit (weighted: the common op)
				name := titleName(rng.Intn(titles))
				port := ports[rng.Intn(viewers)]
				report := ctrl.Probe(name, port)
				st, err := ctrl.Admit(name, port)
				if (err == nil) != report.OK {
					return false // Admit and Probe disagree
				}
				for _, lr := range report.Legs {
					if lr.Headroom < 0 || lr.Headroom > 1 {
						return false // headroom is a budget fraction
					}
				}
				if !report.OK {
					fr := report.Leg(report.FirstRefusal)
					if !fr.Present || fr.OK {
						return false // FirstRefusal must name a refusing leg
					}
				}
				if err != nil && !errors.Is(err, vodsite.ErrNoReplica) {
					return false // refusals must be over-subscriptions
				}
				if st != nil {
					open = append(open, st)
				}
			case 2:
				if len(open) > 0 {
					k := rng.Intn(len(open))
					open[k].Release()
					open = append(open[:k], open[k+1:]...)
				}
			}
			if !budgetsOK() {
				return false
			}
		}
		// The Catalog snapshot must agree with the per-title views and
		// be detached: mutating the returned map never touches the
		// controller's replica sets.
		cat := ctrl.Catalog()
		if len(cat) != titles {
			return false
		}
		for name, reps := range cat {
			tl := ctrl.Lookup(name)
			if tl == nil || len(reps) != len(tl.Replicas()) {
				return false
			}
			for i, n := range tl.Replicas() {
				if reps[i] != n {
					return false
				}
			}
			cat[name] = nil
		}
		for name, reps := range ctrl.Catalog() {
			if len(reps) != len(ctrl.Lookup(name).Replicas()) {
				return false
			}
		}
		for _, st := range open {
			st.Release()
		}
		for _, n := range ctrl.Nodes() {
			if n.SS.CM.Committed() != 0 {
				return false
			}
			if site.Signalling.CommittedUplink(n.SS.Net.Port) != 0 {
				return false
			}
		}
		for _, p := range ports {
			if site.Signalling.Committed(p) != 0 {
				return false
			}
		}
		return true
	}
	cfg := testutil.Quick(t, 40)
	if testing.Short() {
		cfg.MaxCount = 12
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
