package metro

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

// Test geometry mirrors the vodsite tests: 4800-byte frames at 100 Hz
// over 200 ms rounds; one array carries 4 streams at the default disk
// utilization, 3 at 0.70 (leaving slack for best-effort copy reads).
const (
	frameBytes = 4800
	frameHz    = 100
	peakRate   = 5_300_000
	round      = 200 * sim.Millisecond
)

func titleBytes() int64 {
	return 2 * int64(frameHz) * int64(round) / int64(sim.Second) * frameBytes
}

func titleName(i int) string { return "t" + string(rune('A'+i)) }

type harness struct {
	m       *Controller
	viewers [][]*core.Endpoint // [site][k]
}

// buildMetro stands up a metro of cfg.Sites sites with the same node,
// viewer and title geometry on each; holders maps title index → the
// sites that store its bytes.
func buildMetro(t *testing.T, cfg Config, nodes, viewers, titles int, holders func(i int) []int) *harness {
	t.Helper()
	if cfg.Vod.PeakRate == 0 {
		cfg.Vod.PeakRate = peakRate
	}
	if cfg.Site.Ports == 0 {
		cfg.Site = core.DefaultSiteConfig()
		cfg.Site.Ports = nodes + viewers
	}
	m := New(cfg)
	h := &harness{m: m}
	for _, mb := range m.Members() {
		for j := 0; j < nodes; j++ {
			mb.Ctrl.AddNode(mb.Site.NewStorageServer("n", 256<<10, int64(titles*4+16)))
		}
		var vs []*core.Endpoint
		for j := 0; j < viewers; j++ {
			vs = append(vs, mb.Site.Attach("v"))
		}
		h.viewers = append(h.viewers, vs)
	}
	for i := 0; i < titles; i++ {
		m.AddTitle(titleName(i), titleBytes(), frameBytes, frameHz, holders(i))
	}
	if err := m.Place(); err != nil {
		t.Fatal(err)
	}
	m.Clock().Run() // drain placement I/O
	m.Start(fileserver.CMConfig{Round: round})
	return h
}

// TestMetroSpillAdmission: a viewer whose home site does not hold the
// title is admitted on the neighbor across the trunk — remote stream,
// core-switch route and home link leg all held, all released on Close.
func TestMetroSpillAdmission(t *testing.T) {
	h := buildMetro(t, Config{Sites: 2, Vod: vodsite.Config{ReplicationDisabled: true}},
		1, 4, 1, func(int) []int { return []int{1} })
	m := h.m

	s, err := m.OpenSession(0, titleName(0), h.viewers[0][0].Port)
	if err != nil {
		t.Fatalf("spill admission: %v", err)
	}
	if !s.Spilled() || s.Served != 1 || s.Home != 0 {
		t.Fatalf("session home=%d served=%d, want 0/1", s.Home, s.Served)
	}
	if !m.coreSw.Routed(1, s.SourceVCI()) || m.coreSw.Leaves(1, s.SourceVCI()) != 1 {
		t.Fatal("core switch has no route for the spilled circuit")
	}
	if up := m.Member(1).Trunk.CommittedUp(); up != peakRate {
		t.Fatalf("serving trunk up committed %d, want %d", up, peakRate)
	}
	if dn := m.Member(0).Trunk.CommittedDown(); dn != peakRate {
		t.Fatalf("home trunk down committed %d, want %d", dn, peakRate)
	}
	if m.Member(0).Stats.SpillOut != 1 || m.Member(1).Stats.SpillIn != 1 || m.Stats.Spilled != 1 {
		t.Fatalf("spill scoreboard: %+v / %+v / %+v", m.Member(0).Stats, m.Member(1).Stats, m.Stats)
	}

	s.Close()
	if m.coreSw.Routed(1, s.SourceVCI()) || m.coreSw.RouteEntries() != 0 {
		t.Fatal("core route survives Close")
	}
	if m.Member(1).Trunk.CommittedUp() != 0 || m.Member(0).Trunk.CommittedDown() != 0 {
		t.Fatal("trunk budget survives Close")
	}
	if !s.Closed() {
		t.Fatal("session not closed")
	}
}

// TestMetroPrefersHomeSite: when the home site holds the title, the
// session is local — no trunk hold, no spill accounting.
func TestMetroPrefersHomeSite(t *testing.T) {
	h := buildMetro(t, Config{Sites: 2, Vod: vodsite.Config{ReplicationDisabled: true}},
		1, 4, 1, func(int) []int { return []int{0, 1} })
	m := h.m
	s, err := m.OpenSession(0, titleName(0), h.viewers[0][0].Port)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spilled() || m.Stats.Spilled != 0 || m.Member(0).Stats.Local != 1 {
		t.Fatalf("local admission spilled: served=%d %+v", s.Served, m.Member(0).Stats)
	}
	if m.Member(0).Trunk.CommittedDown() != 0 && m.Member(1).Trunk.CommittedUp() != 0 {
		t.Fatal("local session committed trunk bandwidth")
	}
}

// TestMetroTrunkIsAdmissionLeg: with the trunk sized for one stream,
// the second spill is refused by the trunk leg specifically — the
// neighbor has serving room, the error wraps core.ErrTrunk, and Probe
// names LegTrunk as the first refusal.
func TestMetroTrunkIsAdmissionLeg(t *testing.T) {
	cfg := Config{
		Sites:     2,
		Vod:       vodsite.Config{ReplicationDisabled: true},
		TrunkRate: peakRate + peakRate/2,
	}
	h := buildMetro(t, cfg, 1, 6, 1, func(int) []int { return []int{1} })
	m := h.m

	if _, err := m.OpenSession(0, titleName(0), h.viewers[0][0].Port); err != nil {
		t.Fatalf("first spill under sized trunk: %v", err)
	}
	_, err := m.OpenSession(0, titleName(0), h.viewers[0][1].Port)
	if !errors.Is(err, core.ErrTrunk) {
		t.Fatalf("trunk over-commit error = %v, want core.ErrTrunk", err)
	}
	if m.Member(0).Stats.RefusedTrunk != 1 || m.Stats.TrunkRefused != 1 {
		t.Fatalf("trunk refusal not counted: %+v", m.Member(0).Stats)
	}
	// The serving site itself still has disk and uplink room.
	if rep := m.Member(1).Ctrl.Probe(titleName(0), m.Member(1).TrunkPort()); !rep.OK {
		t.Fatalf("remote site out of room — refusal was not the trunk's doing: %+v", rep)
	}
	rep, served := m.Probe(0, titleName(0), h.viewers[0][1].Port)
	if served != -1 || rep.OK {
		t.Fatalf("Probe admits (site %d) with the trunk full", served)
	}
	if rep.FirstRefusal != core.LegTrunk {
		t.Fatalf("Probe FirstRefusal = %s, want %s", rep.FirstRefusal, core.LegTrunk)
	}
	tl := rep.Leg(core.LegTrunk)
	if !tl.Present || tl.OK || tl.Headroom < 0 || tl.Headroom > 1 {
		t.Fatalf("trunk leg report %+v", tl)
	}
}

// TestMetroProbeFindsSpillSite: Probe reports the serving site an
// OpenSession would pick, with the trunk leg present and OK.
func TestMetroProbeFindsSpillSite(t *testing.T) {
	h := buildMetro(t, Config{Sites: 3, Vod: vodsite.Config{ReplicationDisabled: true}},
		1, 4, 1, func(int) []int { return []int{2} })
	rep, served := h.m.Probe(0, titleName(0), h.viewers[0][0].Port)
	if !rep.OK || served != 2 {
		t.Fatalf("Probe → (%v, %d), want OK at site 2", rep.OK, served)
	}
	if tl := rep.Leg(core.LegTrunk); !tl.Present || !tl.OK {
		t.Fatalf("trunk leg missing from spill probe: %+v", tl)
	}
}

// TestCatalogAntiEntropy: a stale row spreads around the ring — one
// round brings every alive replica to the newest version.
func TestCatalogAntiEntropy(t *testing.T) {
	h := buildMetro(t, Config{Sites: 3, Vod: vodsite.Config{ReplicationDisabled: true}},
		1, 2, 2, func(i int) []int { return []int{i % 3} })
	m := h.m

	// Everyone starts in agreement.
	for _, mb := range m.Members() {
		v, ok := mb.CatalogView(titleName(0))
		if !ok || len(v.Holders) != 1 || v.Holders[0] != 0 {
			t.Fatalf("site %d initial view %+v", mb.Index, v)
		}
	}
	// Site 0 learns something new (a fresh holder at a fresh version).
	m.catVersion++
	e := m.members[0].cat[titleName(0)].clone()
	e.Version = m.catVersion
	e.Holders = insertSite(e.Holders, 2)
	m.members[0].cat[titleName(0)] = e

	if n := m.SyncCatalog(); n == 0 {
		t.Fatal("divergent catalogs reconciled nothing")
	}
	for _, mb := range m.Members() {
		v, _ := mb.CatalogView(titleName(0))
		if v.Version != e.Version || len(v.Holders) != 2 {
			t.Fatalf("site %d did not converge: %+v", mb.Index, v)
		}
	}
	if m.Stats.CatalogSyncs == 0 || m.Stats.CatalogReconciled == 0 {
		t.Fatalf("sync scoreboard empty: %+v", m.Stats)
	}

	// The timed tick runs rounds on its own.
	before := m.Stats.CatalogSyncs
	m.Clock().RunFor(2 * syncEvery)
	if m.Stats.CatalogSyncs <= before {
		t.Fatal("anti-entropy tick never fired")
	}
}

// TestMetroCrossSiteCopy: sustained spill pressure replicates the
// title's bytes onto the home site along the best-effort path; once
// the copy is durable the home site admits the title locally.
func TestMetroCrossSiteCopy(t *testing.T) {
	cfg := Config{
		Sites:          2,
		Vod:            vodsite.Config{ReplicationDisabled: true},
		SpillThreshold: 2,
	}
	// Two nodes per site, one replica: the copy must read off the node
	// that stores the title, not merely the least-loaded one.
	h := buildMetro(t, cfg, 2, 6, 1, func(int) []int { return []int{1} })
	m := h.m

	var replicas int
	m.OnReplica = func(home int, title string) {
		if home != 0 || title != titleName(0) {
			t.Errorf("OnReplica(%d, %s)", home, title)
		}
		replicas++
	}
	for i := 0; i < 2; i++ {
		if _, err := m.OpenSession(0, titleName(0), h.viewers[0][i].Port); err != nil {
			t.Fatalf("spill %d: %v", i, err)
		}
	}
	if m.Copying() != 1 || m.Stats.CrossCopiesTriggered != 1 {
		t.Fatalf("pressure %d did not trigger a copy: copying=%d %+v",
			cfg.SpillThreshold, m.Copying(), m.Stats)
	}
	m.Clock().RunFor(3 * sim.Second)
	if replicas != 1 || m.Stats.CrossCopiesCompleted != 1 {
		t.Fatalf("copy did not complete: replicas=%d %+v", replicas, m.Stats)
	}
	if m.Member(0).Ctrl.Lookup(titleName(0)) == nil {
		t.Fatal("home site still does not hold the title")
	}
	if v, _ := m.Member(0).CatalogView(titleName(0)); !holdsSite(v.Holders, 0) {
		t.Fatalf("home catalog row not updated: %+v", v)
	}
	// Anti-entropy spreads the new holder to the source site.
	m.SyncCatalog()
	if v, _ := m.Member(1).CatalogView(titleName(0)); !holdsSite(v.Holders, 0) {
		t.Fatalf("new holder did not spread: %+v", v)
	}
	// The next open is local.
	s, err := m.OpenSession(0, titleName(0), h.viewers[0][2].Port)
	if err != nil {
		t.Fatalf("admission after cross-site copy: %v", err)
	}
	if s.Spilled() {
		t.Fatal("home site holds the bytes but the session still spilled")
	}
}

// TestMetroFailSite: killing a whole site drops its own viewers,
// re-admits the sessions it served for other sites on survivors, and
// strikes it from every catalog replica.
func TestMetroFailSite(t *testing.T) {
	h := buildMetro(t, Config{Sites: 3, Vod: vodsite.Config{ReplicationDisabled: true}},
		1, 6, 1, func(int) []int { return []int{1, 2} })
	m := h.m

	// One spilled session homed at site 0 (served by site 1, first in
	// rotation) and one local session on site 1 itself.
	sp, err := m.OpenSession(0, titleName(0), h.viewers[0][0].Port)
	if err != nil || sp.Served != 1 {
		t.Fatalf("spill setup: served=%d err=%v", sp.Served, err)
	}
	lc, err := m.OpenSession(1, titleName(0), h.viewers[1][0].Port)
	if err != nil || lc.Spilled() {
		t.Fatalf("local setup: %v", err)
	}
	m.Clock().RunFor(500 * sim.Millisecond)

	var readmits, drops int
	m.OnReadmit = func(*Session) { readmits++ }
	m.OnDrop = func(*Session) { drops++ }

	rep := m.FailSite(1)
	if rep.Sessions != 2 || rep.Recovered != 1 || rep.Dropped != 1 {
		t.Fatalf("fail report %+v, want 2 sessions, 1 recovered, 1 dropped", rep)
	}
	if readmits != 1 || drops != 1 {
		t.Fatalf("hooks fired %d/%d, report says %d/%d", readmits, drops, rep.Recovered, rep.Dropped)
	}
	if !m.Member(1).Failed() {
		t.Fatal("site 1 not marked failed")
	}
	if sp.Closed() || sp.Served != 2 || !sp.Spilled() {
		t.Fatalf("survivor session served=%d closed=%v, want re-admitted on site 2", sp.Served, sp.Closed())
	}
	if !lc.Closed() {
		t.Fatal("dead site's own viewer session still open")
	}
	// Trunk budgets moved with the session: site 1 free, site 2 carries.
	if m.Member(1).Trunk.CommittedUp() != 0 {
		t.Fatalf("dead site's trunk still committed %d", m.Member(1).Trunk.CommittedUp())
	}
	if m.Member(2).Trunk.CommittedUp() != peakRate {
		t.Fatalf("survivor trunk committed %d, want %d", m.Member(2).Trunk.CommittedUp(), peakRate)
	}
	// No survivor's catalog lists the dead site.
	for _, mb := range m.Members() {
		if mb.Failed() {
			continue
		}
		if v, _ := mb.CatalogView(titleName(0)); holdsSite(v.Holders, 1) {
			t.Fatalf("site %d still lists the dead site: %+v", mb.Index, v)
		}
	}
	if m.Stats.Recovered != 1 || m.Stats.Dropped != 1 {
		t.Fatalf("metro scoreboard %+v", m.Stats)
	}
	// Playout continues on the survivor without underruns.
	m.Clock().RunFor(sim.Second)
	for _, n := range m.Member(2).Ctrl.Nodes() {
		if ur := n.SS.CM.Stats.Underruns; ur != 0 {
			t.Fatalf("%d underruns on the survivor after failover", ur)
		}
	}
	// Failing the same site again is a no-op.
	if rep2 := m.FailSite(1); rep2.Sessions != 0 {
		t.Fatalf("second FailSite moved sessions: %+v", rep2)
	}
}

// TestMetroFailSiteNoSurvivor: when no surviving site holds the title,
// the spilled session drops.
func TestMetroFailSiteNoSurvivor(t *testing.T) {
	h := buildMetro(t, Config{Sites: 2, Vod: vodsite.Config{ReplicationDisabled: true}},
		1, 4, 1, func(int) []int { return []int{1} })
	m := h.m
	sp, err := m.OpenSession(0, titleName(0), h.viewers[0][0].Port)
	if err != nil {
		t.Fatal(err)
	}
	rep := m.FailSite(1)
	if rep.Recovered != 0 || rep.Dropped != 1 || !sp.Closed() {
		t.Fatalf("fail report %+v closed=%v, want the session dropped", rep, sp.Closed())
	}
	if m.Member(0).Trunk.CommittedDown() != 0 {
		t.Fatal("dropped session left trunk bandwidth committed")
	}
}

// TestMetroSpillTrace: every spilled admission carries a trunk-leg
// entry in the shared session trace.
func TestMetroSpillTrace(t *testing.T) {
	cfg := Config{Sites: 2, Vod: vodsite.Config{ReplicationDisabled: true}}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{1} })
	m := h.m
	tr := m.EnableTrace()

	if _, err := m.OpenSession(0, titleName(0), h.viewers[0][0].Port); err != nil {
		t.Fatal(err)
	}
	spilled := 0
	for _, ev := range tr.Events() {
		if ev.Event != "spilled" {
			continue
		}
		spilled++
		trunk := false
		for _, leg := range ev.Legs {
			if leg.Leg == core.LegTrunk.String() {
				trunk = true
				if leg.Headroom < 0 || leg.Headroom > 1 {
					t.Fatalf("trunk leg headroom %v out of range", leg.Headroom)
				}
			}
		}
		if !trunk {
			t.Fatalf("spilled event without a trunk leg: %+v", ev)
		}
	}
	if spilled != 1 {
		t.Fatalf("%d spilled trace events, want 1", spilled)
	}
	// The remote site's own admission events share the same timeline.
	admitted := false
	for _, ev := range tr.Events() {
		if ev.Event == "admitted" {
			admitted = true
		}
	}
	if !admitted {
		t.Fatal("site-level admission events missing from the shared tracer")
	}
}

// TestMetroNoSpillAblation: with spill disabled the same over-
// subscription is refused outright.
func TestMetroNoSpillAblation(t *testing.T) {
	h := buildMetro(t, Config{Sites: 2, NoSpill: true,
		Vod: vodsite.Config{ReplicationDisabled: true}},
		1, 4, 1, func(int) []int { return []int{1} })
	m := h.m
	_, err := m.OpenSession(0, titleName(0), h.viewers[0][0].Port)
	if !errors.Is(err, vodsite.ErrNoReplica) {
		t.Fatalf("no-spill refusal = %v, want ErrNoReplica", err)
	}
	if m.Member(0).Stats.Refused != 1 || m.Stats.Spilled != 0 {
		t.Fatalf("ablation scoreboard %+v %+v", m.Member(0).Stats, m.Stats)
	}
}
