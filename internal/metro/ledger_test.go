package metro

// Ledger conservation across the federation: over seeded random traces
// of spilled and local opens, closes, live-channel joins and leaves
// across three sites, cross-site copies and a whole-site failure, after
// every operation each site's netsig link/uplink commitments, every
// node's disk and CPU commitments and every trunk direction equal the
// sum over the live sessions and trees that hold them; closing
// everything returns every budget to exactly zero.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netsig"
	"repro/internal/vodsite"
)

type ledgerMetro struct {
	h     *harness
	chans []*LiveChannel
}

// newLedgerMetro is three sites of two CPU-admitted nodes each, trunks
// that fit three streams a direction, and titles spread so that every
// site spills some of them.
func newLedgerMetro(t *testing.T, partitions int) *ledgerMetro {
	cfg := Config{
		Sites: 3, Partitions: partitions,
		Vod:            vodsite.Config{ReplicationDisabled: true},
		TrunkRate:      3 * peakRate,
		SpillThreshold: 3,
	}
	h := buildMetro(t, cfg, 2, 5, 4, func(i int) []int { return []int{i % 3, (i + 1) % 3}[:1+i%2] })
	for _, mb := range h.m.Members() {
		for _, n := range mb.Ctrl.Nodes() {
			n.SS.EnableCPU(core.CPUConfig{BytesPerSec: 2 << 20})
		}
		for _, v := range h.viewers[mb.Index] {
			mb.Site.Signalling.SetPortCapacity(v.Port, 2*peakRate)
		}
	}
	return &ledgerMetro{h: h}
}

// audit recomputes every budget from the live sessions and trees.
func (lm *ledgerMetro) audit(t *testing.T, step string) {
	t.Helper()
	m := lm.h.m
	up, down := make([]int64, m.Sites()), make([]int64, m.Sites())
	for _, s := range m.Sessions() {
		if !s.Closed() && s.Spilled() {
			up[s.Served] += s.homeSess.Rate()
			down[s.Home] += s.homeSess.Rate()
		}
	}
	for _, ch := range lm.chans {
		for site, sub := range ch.trees {
			if site != ch.home {
				down[site] += sub.Rate()
			}
		}
		if len(ch.trees) > 1 {
			up[ch.home] += ch.trees[ch.home].Rate()
		}
	}
	for i, mb := range m.Members() {
		if got := mb.Trunk.CommittedUp(); got != up[i] || got > mb.Trunk.Capacity() {
			t.Fatalf("%s: site %d trunk up commits %d, live flows hold %d", step, i, got, up[i])
		}
		if got := mb.Trunk.CommittedDown(); got != down[i] || got > mb.Trunk.Capacity() {
			t.Fatalf("%s: site %d trunk down commits %d, live flows hold %d", step, i, got, down[i])
		}
		link, uplink := map[int]int64{}, map[int]int64{}
		disk, cpu := map[*core.StorageServer]int64{}, map[*core.StorageServer]float64{}
		circuit := func(c interface {
			Circuit() *netsig.Circuit
			Rate() int64
		}) {
			for _, p := range c.Circuit().OutPorts {
				link[p] += c.Rate()
			}
			uplink[c.Circuit().InPort] += c.Rate()
		}
		for _, s := range mb.Site.Sessions() {
			circuit(s)
			for _, n := range mb.Ctrl.Nodes() {
				if s.Spec().CM != nil && s.Spec().CM == n.SS.CM {
					if !s.CacheServed() {
						disk[n.SS] += int64(s.CM().Cost())
					}
					cpu[n.SS] += float64(s.CPU().Work()) / float64(s.CPU().Period())
				}
			}
		}
		for _, b := range mb.Site.Broadcasts() {
			circuit(b)
		}
		sig := mb.Site.Signalling
		for p := 0; p < mb.Site.Switch.Ports(); p++ {
			if got := sig.Committed(p); got != link[p] || got > sig.Capacity(p) {
				t.Fatalf("%s: site %d port %d link commits %d, live flows hold %d", step, i, p, got, link[p])
			}
			if got := sig.CommittedUplink(p); got != uplink[p] || got > sig.UplinkCapacity(p) {
				t.Fatalf("%s: site %d port %d uplink commits %d, live flows hold %d", step, i, p, got, uplink[p])
			}
		}
		for _, n := range mb.Ctrl.Nodes() {
			if got := int64(n.SS.CM.Committed()); got != disk[n.SS] {
				t.Fatalf("%s: site %d node %d disks commit %d, live flows hold %d", step, i, n.ID, got, disk[n.SS])
			}
			got, want := n.SS.CPU.QoS.ReservedUtilization(), cpu[n.SS]
			if math.Abs(got-want) > 1e-9 || (want == 0 && got != 0) {
				t.Fatalf("%s: site %d node %d CPU reserves %v, live flows hold %v", step, i, n.ID, got, want)
			}
		}
	}
}

// trace runs one seeded random trace — failing a site midway when
// failSite is set — and closes everything it opened.
func (lm *ledgerMetro) trace(t *testing.T, seed int64, ops int, failSite bool) {
	t.Helper()
	m, rng := lm.h.m, rand.New(rand.NewSource(seed))
	viewer := func(site int) int { return lm.h.viewers[site][rng.Intn(4)].Port }
	var open []*Session
	var joins []*LiveJoin
	for i := 0; i < ops; i++ {
		step := fmt.Sprintf("seed %d op %d", seed, i)
		site := rng.Intn(3)
		switch op := rng.Intn(12); {
		case failSite && i == ops/2:
			m.FailSite(1)
		case op < 5:
			if s, err := m.OpenSession(site, titleName(rng.Intn(4)), viewer(site)); err == nil {
				open = append(open, s)
			}
		case op < 7 && len(open) > 0:
			k := rng.Intn(len(open))
			open[k].Close()
			open = append(open[:k], open[k+1:]...)
		case op < 8:
			sp := liveSpec(lm.h.viewers[site][4])
			sp.Title = fmt.Sprintf("live%d.%d", seed, i)
			if ch, err := m.OpenBroadcast(site, sp); err == nil {
				lm.chans = append(lm.chans, ch)
			}
		case op < 10 && len(lm.chans) > 0:
			if j, err := lm.chans[rng.Intn(len(lm.chans))].Join(site, viewer(site)); err == nil {
				joins = append(joins, j)
			}
		case op < 11 && len(joins) > 0:
			k := rng.Intn(len(joins))
			_ = joins[k].Leave()
			joins = append(joins[:k], joins[k+1:]...)
		default:
			m.Clock().RunFor(round)
		}
		lm.audit(t, step)
	}
	for _, s := range open {
		s.Close()
	}
	for _, ch := range lm.chans {
		if err := ch.Close(); err != nil {
			t.Fatalf("seed %d: close channel: %v", seed, err)
		}
	}
	lm.chans = nil
	lm.audit(t, fmt.Sprintf("seed %d close-all", seed))
	for i, mb := range m.Members() {
		if n := mb.Site.Signalling.Open(); n != 0 {
			t.Fatalf("seed %d: %d circuits survive close-all on site %d", seed, n, i)
		}
	}
}

func TestMetroLedgerConservationProperty(t *testing.T) {
	traces, failing := 400, 24
	if testing.Short() {
		traces, failing = 40, 4
	}
	for _, parts := range []int{0, 2} {
		lm := newLedgerMetro(t, parts)
		for seed := int64(0); seed < int64(traces); seed++ {
			lm.trace(t, seed, 40, false)
		}
		if st := lm.h.m.Stats; st.Spilled == 0 || st.TrunkRefused == 0 || st.CrossCopiesCompleted == 0 {
			t.Fatalf("partitions=%d: traces never spilled, hit a full trunk or copied a title: %+v", parts, st)
		}
		// A site failure is for good: each failing trace gets its own metro.
		for seed := int64(0); seed < int64(failing); seed++ {
			newLedgerMetro(t, parts).trace(t, 1000+seed, 40, true)
		}
	}
}
