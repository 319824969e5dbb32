package metro

// Metro live-broadcast tests: one trunk copy per subscribed site,
// trunk budgets held once per channel (up) and once per site (down),
// subtree degrade recommitting its trunk leg, trunk refusals with the
// spill-admission leg taxonomy, and leave-all/Close returning every
// budget to zero.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vodsite"
)

func liveSpec(cam *core.Endpoint) core.BroadcastSpec {
	return core.BroadcastSpec{
		InPort:     cam.Port,
		PeakRate:   peakRate,
		Title:      "live",
		FrameBytes: frameBytes,
		FrameHz:    frameHz,
	}
}

// One cell-train copy crosses the metro core per subscribed site, no
// matter how many viewers each site holds; the home trunk's up
// direction is charged once per channel, each site's down direction
// once per site, and leave-all releases everything.
func TestMetroLiveOneCopyPerSite(t *testing.T) {
	cfg := Config{Sites: 3, Vod: vodsite.Config{ReplicationDisabled: true}}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
	m := h.m

	cam := h.viewers[0][3]
	ch, err := m.OpenBroadcast(0, liveSpec(cam))
	if err != nil {
		t.Fatal(err)
	}
	homeVCI := ch.Subtree(0).Circuit().VCI
	if got := m.Member(0).Trunk.CommittedUp(); got != 0 {
		t.Fatalf("open committed %d on the home trunk before any remote viewer", got)
	}

	var joins []*LiveJoin
	for _, jp := range []struct{ site, v int }{{0, 0}, {1, 0}, {1, 1}, {2, 0}} {
		j, err := ch.Join(jp.site, h.viewers[jp.site][jp.v].Port)
		if err != nil {
			t.Fatalf("join site %d viewer %d: %v", jp.site, jp.v, err)
		}
		joins = append(joins, j)
	}
	if ch.Viewers() != 4 {
		t.Fatalf("Viewers = %d, want 4", ch.Viewers())
	}
	// Two subscribed remote sites → exactly two core-switch leaves on
	// the home tree's trunk circuit: site 1's second viewer rides its
	// site's one copy.
	if got := m.coreSw.Leaves(0, homeVCI); got != 2 {
		t.Fatalf("core switch carries %d leaves for the channel, want 2 (one per site)", got)
	}
	if got, want := m.Member(0).Trunk.CommittedUp(), ch.Subtree(0).Rate(); got != want {
		t.Fatalf("home trunk up committed %d, want %d (once per channel)", got, want)
	}
	for _, site := range []int{1, 2} {
		if got := m.Member(site).Trunk.CommittedDown(); got != peakRate {
			t.Fatalf("site %d trunk down committed %d, want %d (once per site)", site, got, peakRate)
		}
		if got := m.Member(site).Trunk.CommittedUp(); got != 0 {
			t.Fatalf("site %d trunk up committed %d for a downstream channel", site, got)
		}
	}

	// Site 1's first leave keeps its copy (a viewer remains); the last
	// leave unsubscribes the site.
	if err := joins[1].Leave(); err != nil {
		t.Fatal(err)
	}
	if got := m.coreSw.Leaves(0, homeVCI); got != 2 {
		t.Fatalf("leave with a sibling viewer pruned the site's copy (leaves=%d)", got)
	}
	if err := joins[2].Leave(); err != nil {
		t.Fatal(err)
	}
	if ch.Subtree(1) != nil {
		t.Fatal("empty site still subscribed")
	}
	if got := m.Member(1).Trunk.CommittedDown(); got != 0 {
		t.Fatalf("unsubscribed site still commits %d down", got)
	}
	if got := m.coreSw.Leaves(0, homeVCI); got != 1 {
		t.Fatalf("core leaves = %d after site 1 unsubscribed, want 1", got)
	}

	// The last remote site's leave releases the channel's up leg too.
	if err := joins[3].Leave(); err != nil {
		t.Fatal(err)
	}
	if got := m.Member(0).Trunk.CommittedUp(); got != 0 {
		t.Fatalf("home trunk up still committed %d with no remote site", got)
	}
	if got := m.coreSw.Leaves(0, homeVCI); got != 0 {
		t.Fatalf("core leaves = %d with no remote site, want 0", got)
	}

	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 3; site++ {
		mb := m.Member(site)
		if up, down := mb.Trunk.CommittedUp(), mb.Trunk.CommittedDown(); up != 0 || down != 0 {
			t.Fatalf("close left site %d trunk at up=%d down=%d", site, up, down)
		}
	}
}

// A remote join the trunk cannot carry refuses with core.ErrTrunk,
// counts as a trunk refusal, leaves a join-refused trace event on the
// trunk leg, and holds nothing.
func TestMetroLiveTrunkRefusal(t *testing.T) {
	cfg := Config{
		Sites:     2,
		Vod:       vodsite.Config{ReplicationDisabled: true},
		TrunkRate: peakRate / 2,
	}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
	m := h.m
	tr := m.EnableTrace()

	ch, err := m.OpenBroadcast(0, liveSpec(h.viewers[0][3]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ch.Join(1, h.viewers[1][0].Port)
	if !errors.Is(err, core.ErrTrunk) {
		t.Fatalf("join over a sized trunk returned %v, want core.ErrTrunk", err)
	}
	if m.Member(0).Stats.RefusedTrunk != 1 || m.Stats.TrunkRefused != 1 {
		t.Fatalf("trunk refusal not counted: %+v / %+v", m.Member(0).Stats, m.Stats)
	}
	if ch.Subtree(1) != nil || m.Member(0).Trunk.CommittedUp() != 0 {
		t.Fatal("refused join held a subtree or the up leg")
	}
	if got := m.Member(1).Trunk.CommittedDown(); got != 0 {
		t.Fatalf("refused join held %d on the down leg", got)
	}
	refused := 0
	for _, ev := range tr.Events() {
		if ev.Event != "join-refused" || ev.Leg != core.LegTrunk.String() {
			continue
		}
		refused++
		if len(ev.Legs) != 1 || ev.Legs[0].OK || ev.Legs[0].Headroom < 0 || ev.Legs[0].Headroom > 1 {
			t.Fatalf("trunk refusal legs malformed: %+v", ev.Legs)
		}
	}
	if refused != 1 {
		t.Fatalf("%d trunk join-refused trace events, want 1", refused)
	}

	// A home-site viewer is untouched by the trunk: joins fine.
	if _, err := ch.Join(0, h.viewers[0][0].Port); err != nil {
		t.Fatalf("home join refused by a trunk problem: %v", err)
	}
}

// A remote subtree that degrades under local link pressure recommits
// its trunk down leg at the degraded rate — the trunk only carries
// what the site's viewers actually receive — and climbs back (leg
// recommitted at full) when the pressure leaves.
func TestMetroLiveSubtreeDegradeRecommitsTrunk(t *testing.T) {
	cfg := Config{Sites: 2, Vod: vodsite.Config{ReplicationDisabled: true}}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
	m := h.m

	ch, err := m.OpenBroadcast(0, liveSpec(h.viewers[0][3]))
	if err != nil {
		t.Fatal(err)
	}
	tight := h.viewers[1][1].Port
	m.Member(1).Site.Signalling.SetPortCapacity(tight, peakRate*8/10)

	if _, err := ch.Join(1, h.viewers[1][0].Port); err != nil {
		t.Fatal(err)
	}
	if got := m.Member(1).Trunk.CommittedDown(); got != peakRate {
		t.Fatalf("uncontended subscription commits %d down, want %d", got, peakRate)
	}
	jTight, err := ch.Join(1, tight)
	if err != nil {
		t.Fatalf("pressured join refused instead of degrading: %v", err)
	}
	sub := ch.Subtree(1)
	if !sub.Degraded() {
		t.Fatal("pressured join did not degrade the subtree")
	}
	if got, want := m.Member(1).Trunk.CommittedDown(), sub.Rate(); got != want {
		t.Fatalf("degraded subtree's trunk leg committed %d, want the degraded %d", got, want)
	}
	// Only the remote subtree moved: the home tier (and up leg) is its
	// own ladder.
	if ch.Subtree(0).Degraded() {
		t.Fatal("remote pressure degraded the home tree")
	}
	if got, want := m.Member(0).Trunk.CommittedUp(), ch.Subtree(0).Rate(); got != want {
		t.Fatalf("home up leg committed %d, want %d", got, want)
	}

	if err := jTight.Leave(); err != nil {
		t.Fatal(err)
	}
	if sub.Degraded() {
		t.Fatal("slack-making leave did not restore the subtree")
	}
	if got := m.Member(1).Trunk.CommittedDown(); got != peakRate {
		t.Fatalf("restored subtree's trunk leg committed %d, want %d", got, peakRate)
	}
}

// checkLiveTrunks asserts the live plane's trunk ledger: every trunk
// direction commits exactly what the channels' live trees hold on it —
// each subscribed remote site's subtree on that site's down direction,
// the home tree on the home's up direction while any remote site is
// subscribed — and never more than the trunk carries.
func checkLiveTrunks(t *testing.T, m *Controller, step string, chans ...*LiveChannel) {
	t.Helper()
	up, down := make([]int64, m.Sites()), make([]int64, m.Sites())
	for _, ch := range chans {
		if ch.Closed() {
			continue
		}
		for site := 0; site < m.Sites(); site++ {
			if sub := ch.Subtree(site); sub != nil && site != ch.Home() {
				down[site] += sub.Rate()
			}
		}
		if ch.Viewers() > ch.Subtree(ch.Home()).Viewers() {
			// Some remote site is subscribed: the home tree feeds the trunk.
			up[ch.Home()] += ch.Subtree(ch.Home()).Rate()
		}
	}
	for site, mb := range m.Members() {
		tr := mb.Trunk
		if tr.CommittedUp() != up[site] || tr.CommittedDown() != down[site] {
			t.Fatalf("%s: site %d trunk commits up=%d down=%d, live trees hold up=%d down=%d",
				step, site, tr.CommittedUp(), tr.CommittedDown(), up[site], down[site])
		}
		if up[site] > tr.Capacity() || down[site] > tr.Capacity() {
			t.Fatalf("%s: site %d trunk carries up=%d down=%d over its %d capacity",
				step, site, up[site], down[site], tr.Capacity())
		}
	}
}

// A tier climb is admission-controlled on the trunk like on every other
// leg: a subtree that degraded under link pressure, whose freed trunk
// room another channel then took, stays at its tier when the pressure
// leaves — the trunk never carries more than it committed, and closing
// both channels lands every direction on exactly zero.
func TestMetroLiveRestoreRespectsTrunk(t *testing.T) {
	cfg := Config{
		Sites:     3,
		Vod:       vodsite.Config{ReplicationDisabled: true},
		TrunkRate: peakRate * 18 / 10,
	}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
	m := h.m
	specAt := func(site int, title string) core.BroadcastSpec {
		sp := liveSpec(h.viewers[site][3])
		sp.Title = title
		return sp
	}
	a, err := m.OpenBroadcast(0, specAt(0, "A"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.OpenBroadcast(2, specAt(2, "B"))
	if err != nil {
		t.Fatal(err)
	}
	tight := h.viewers[1][1].Port
	m.Member(1).Site.Signalling.SetPortCapacity(tight, peakRate*8/10)

	if _, err := a.Join(1, h.viewers[1][0].Port); err != nil {
		t.Fatal(err)
	}
	checkLiveTrunks(t, m, "A subscribes site 1", a, b)
	jTight, err := a.Join(1, tight)
	if err != nil {
		t.Fatalf("pressured join refused instead of degrading: %v", err)
	}
	if !a.Subtree(1).Degraded() {
		t.Fatal("pressured join did not degrade A's subtree")
	}
	checkLiveTrunks(t, m, "A's subtree degrades", a, b)
	tier := a.Subtree(1).Factor()

	// B takes the trunk room A's degraded subtree freed.
	if _, err := b.Join(1, h.viewers[1][2].Port); err != nil {
		t.Fatalf("B could not subscribe into the freed trunk room: %v", err)
	}
	checkLiveTrunks(t, m, "B subscribes site 1", a, b)

	// The pressure leaves, but the trunk has no room for A at full rate.
	if err := jTight.Leave(); err != nil {
		t.Fatal(err)
	}
	checkLiveTrunks(t, m, "tight viewer leaves", a, b)
	if got := a.Subtree(1).Factor(); got != tier {
		t.Fatalf("A's subtree climbed to %v through a full trunk (was %v)", got, tier)
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	checkLiveTrunks(t, m, "A closes", a, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	checkLiveTrunks(t, m, "B closes", a, b)
	for site, mb := range m.Members() {
		if mb.Trunk.CommittedUp() != 0 || mb.Trunk.CommittedDown() != 0 {
			t.Fatalf("close-all left site %d trunk at up=%d down=%d",
				site, mb.Trunk.CommittedUp(), mb.Trunk.CommittedDown())
		}
	}
}

// Closing a channel subscribed at several sites tears them down in site
// order: the shared trace (same timestamp throughout) comes out the
// same on every run.
func TestMetroLiveCloseDeterministic(t *testing.T) {
	closeTrace := func() string {
		cfg := Config{Sites: 5, Vod: vodsite.Config{ReplicationDisabled: true}}
		h := buildMetro(t, cfg, 1, 2, 1, func(int) []int { return []int{0} })
		tr := h.m.EnableTrace()
		ch, err := h.m.OpenBroadcast(0, liveSpec(h.viewers[0][1]))
		if err != nil {
			t.Fatal(err)
		}
		for site := 0; site < 5; site++ {
			if _, err := ch.Join(site, h.viewers[site][0].Port); err != nil {
				t.Fatal(err)
			}
		}
		if err := ch.Close(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, ev := range tr.Events() {
			fmt.Fprintf(&b, "%s %s\n", ev.Event, ev.Node)
		}
		return b.String()
	}
	want := closeTrace()
	if n := strings.Count(want, "broadcast-close"); n != 5 {
		t.Fatalf("%d broadcast-close events, want 5:\n%s", n, want)
	}
	for run := 1; run < 20; run++ {
		if got := closeTrace(); got != want {
			t.Fatalf("run %d closed in a different order:\n%s\nwant:\n%s", run, got, want)
		}
	}
}
