package metro

// Ledger conservation across the federation: over seeded random traces
// of spilled and local opens and closes across three sites, cross-site
// copies and a whole-site failure, after every operation each site's
// netsig link/uplink commitments, every node's disk and CPU commitments
// and every trunk direction equal the sum over the live sessions that
// hold them; once a site has failed, its trunk holds nothing; closing
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

// newLedgerMetro is three sites of two CPU-admitted nodes each, trunks
// that fit three streams a direction, and titles spread so that every
// site spills some of them.
func newLedgerMetro(t *testing.T) *harness {
	cfg := Config{
		Sites:          3,
		Vod:            vodsite.Config{ReplicationDisabled: true},
		TrunkRate:      3 * peakRate,
		SpillThreshold: 3,
	}
	h := buildMetro(t, cfg, 2, 4, 4, func(i int) []int { return []int{i % 3, (i + 1) % 3}[:1+i%2] })
	for _, mb := range h.m.Members() {
		for _, n := range mb.Ctrl.Nodes() {
			n.SS.EnableCPU(core.CPUConfig{BytesPerSec: 2 << 20})
		}
		for _, v := range h.viewers[mb.Index] {
			mb.Site.Signalling.SetPortCapacity(v.Port, 2*peakRate)
		}
	}
	return h
}

// audit recomputes every budget from the live sessions.
func (h *harness) audit(t *testing.T, step string) {
	t.Helper()
	m := h.m
	up, down := make([]int64, m.Sites()), make([]int64, m.Sites())
	for _, s := range m.Sessions() {
		if !s.Closed() && s.Spilled() {
			up[s.Served] += s.homeSess.Rate()
			down[s.Home] += s.homeSess.Rate()
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

// deadSite checks what a failed site may still hold: both of its trunk
// directions are free.
func (h *harness) deadSite(t *testing.T, step string, site int) {
	t.Helper()
	if tr := h.m.Member(site).Trunk; tr.CommittedUp() != 0 || tr.CommittedDown() != 0 {
		t.Fatalf("%s: failed site %d trunk commits up=%d down=%d", step, site, tr.CommittedUp(), tr.CommittedDown())
	}
}

// trace runs one seeded random trace — failing a site midway when
// failSite is set — and closes everything it opened.
func (h *harness) trace(t *testing.T, seed int64, ops int, failSite bool) {
	t.Helper()
	m, rng := h.m, rand.New(rand.NewSource(seed))
	viewer := func(site int) int { return h.viewers[site][rng.Intn(4)].Port }
	var open []*Session
	for i := 0; i < ops; i++ {
		step := fmt.Sprintf("seed %d op %d", seed, i)
		site := rng.Intn(3)
		// Weights out of 8: open 5, close 2, run a round 1.
		switch op := rng.Intn(8); {
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
		default:
			m.Clock().RunFor(round)
		}
		h.audit(t, step)
		if failSite && i >= ops/2 {
			h.deadSite(t, step, 1)
		}
	}
	for _, s := range open {
		s.Close()
	}
	h.audit(t, fmt.Sprintf("seed %d close-all", seed))
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
	h := newLedgerMetro(t)
	for seed := int64(0); seed < int64(traces); seed++ {
		h.trace(t, seed, 40, false)
	}
	if st := h.m.Stats; st.Spilled == 0 || st.TrunkRefused == 0 || st.CrossCopiesCompleted == 0 {
		t.Fatalf("traces never spilled, hit a full trunk or copied a title: %+v", st)
	}
	// A site failure is for good: each failing trace gets its own metro.
	for seed := int64(0); seed < int64(failing); seed++ {
		newLedgerMetro(t).trace(t, 1000+seed, 40, true)
	}
}
