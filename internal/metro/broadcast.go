package metro

// Live broadcast across the federation: one camera at a home site,
// viewers at any member site, and the two-tier fabric doing all the
// fan-out. The channel's home tree carries at most one trunk branch no
// matter how many sites subscribe — the core switch holds a multicast
// entry replicating that single copy onto each subscribed site's down
// trunk, and each subscribed site runs its own subtree (a
// core.Broadcast fed from its trunk ingress port) for its local
// viewers. So a cell train crosses the home uplink once, the metro
// core once per subscribed site, and each site's edge fabric once per
// local branch: exactly the paper's one-event-per-train-per-switch
// cost model, federated.
//
// Budgets: each tree's spec names the trunk direction it crosses, so
// the direction is one more leg of that tree's core reservation. The
// home tree holds its trunk's up direction, once per channel, while
// AttachTrunk has it branched onto the trunk port; each subscribed
// site's subtree holds that site's down direction from open to close.
// Either moves with its tree's tier — the model is a layered stream
// whose enhancement cells the trunk ingress drops, so a degraded
// site's links (trunk included) only carry the degraded rate — and a
// tier climb the trunk cannot carry is refused like any other leg's.
// A join refused because a trunk direction lacks headroom surfaces
// core.ErrTrunk, the same leg taxonomy as spill admission.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// ErrChannelClosed reports a verb on a closed metro channel.
var ErrChannelClosed = errors.New("metro: live channel is closed")

// LiveChannel is one live broadcast spanning the federation.
type LiveChannel struct {
	m    *Controller
	home int
	spec core.BroadcastSpec

	trees  map[int]*core.Broadcast // per-site subtree, home included
	closed bool
}

// LiveJoin is one viewer's handle on a metro channel.
type LiveJoin struct {
	ch   *LiveChannel
	site int
	j    *core.Join
	done bool
}

// Site reports the member site the viewer joined at.
func (lj *LiveJoin) Site() int { return lj.site }

// OpenBroadcast puts a live channel on the air at its home site. The
// source's uplink and CPU contract are admitted there; remote sites
// cost nothing until their first viewer joins.
func (m *Controller) OpenBroadcast(home int, spec core.BroadcastSpec) (*LiveChannel, error) {
	mb := m.members[home]
	if mb.failed {
		return nil, fmt.Errorf("metro: site %d has failed", home)
	}
	hspec := spec
	hspec.TrunkUp = &mb.Trunk.UpBudget
	b, err := mb.Site.OpenBroadcast(hspec)
	if err != nil {
		return nil, err
	}
	return &LiveChannel{m: m, home: home, spec: spec, trees: map[int]*core.Broadcast{home: b}}, nil
}

// Home reports the channel's home site.
func (ch *LiveChannel) Home() int { return ch.home }

// Viewers reports the channel's total viewer count across all sites.
func (ch *LiveChannel) Viewers() int {
	n := 0
	for _, t := range ch.trees {
		n += t.Viewers()
	}
	return n
}

// Subtree returns the site's core.Broadcast (nil when the site has no
// viewers on this channel).
func (ch *LiveChannel) Subtree(site int) *core.Broadcast { return ch.trees[site] }

// Closed reports whether the channel is off the air.
func (ch *LiveChannel) Closed() bool { return ch.closed }

// Join admits one viewer at a member site. Home-site viewers join the
// home tree directly. A remote site's first viewer grows the channel
// to that site: the home trunk's up direction (once per channel) and
// the site's down direction are admission-controlled — a refusal is
// core.ErrTrunk — then one core-switch multicast leaf replicates the
// trunk copy onto the site, and a subtree rooted at its trunk ingress
// admits the viewer's branch. Local link pressure degrades only that
// site's subtree tier, its trunk leg included.
func (ch *LiveChannel) Join(site, port int) (*LiveJoin, error) {
	if ch.closed {
		return nil, ErrChannelClosed
	}
	if ch.m.members[site].failed {
		return nil, fmt.Errorf("metro: site %d has failed", site)
	}
	t := ch.trees[site]
	if t == nil {
		var err error
		if t, err = ch.growSite(site); err != nil {
			return nil, err
		}
	}
	j, err := t.Join(port)
	if err != nil {
		if t.Viewers() == 0 {
			_ = ch.pruneSite(site)
		}
		return nil, err
	}
	return &LiveJoin{ch: ch, site: site, j: j}, nil
}

// growSite subscribes a remote site to the channel: a fresh subtree at
// the site's trunk ingress holding its down direction, the home tree's
// trunk branch holding the up direction (first remote site only), and
// the core-switch multicast leaf between them. A refusal holds nothing.
func (ch *LiveChannel) growSite(site int) (*core.Broadcast, error) {
	m := ch.m
	home := ch.trees[ch.home]
	hm, sm := m.members[ch.home], m.members[site]
	spec := ch.spec
	spec.InPort = sm.trunkPort
	spec.CPU = nil // the source's CPU contract lives at the home site
	spec.Title = fmt.Sprintf("%s@%s", ch.spec.Title, sm.Site.Config.Name)
	spec.TrunkDown = &sm.Trunk.DownBudget
	sb, err := sm.Site.OpenBroadcast(spec)
	if err == nil && len(ch.trees) == 1 {
		// The home tree's single trunk branch: netsig admits it against
		// the trunk port's (unbounded) edge budget; the real budget is
		// the trunk's up direction.
		if err = home.AttachTrunk(hm.trunkPort); err != nil {
			_ = sb.Close()
		}
	}
	if err != nil {
		if errors.Is(err, core.ErrTrunk) {
			hm.Stats.RefusedTrunk++
			m.Stats.TrunkRefused++
			err = fmt.Errorf("live channel %q homed at site %d: %w", ch.spec.Title, ch.home, err)
			ch.traceTrunkRefusal(site, err)
		}
		return nil, err
	}
	// One copy per subscribed site: the core switch replicates the
	// trunk copy, rewriting onto the site's subtree circuit.
	m.coreSw.Route(ch.home, home.VCI(), site, sb.VCI())
	ch.trees[site] = sb
	return sb, nil
}

// pruneSite unsubscribes a remote site: core leaf and subtree (with its
// down direction) go; the home trunk branch (and its up direction) goes
// with the last remote site. The home site itself is never pruned.
func (ch *LiveChannel) pruneSite(site int) error {
	t := ch.trees[site]
	if t == nil || site == ch.home {
		return nil
	}
	home := ch.trees[ch.home]
	ch.m.coreSw.UnrouteLeaf(ch.home, home.VCI(), site, t.VCI())
	err := t.Close()
	delete(ch.trees, site)
	if len(ch.trees) == 1 {
		_ = home.DetachTrunk(ch.m.members[ch.home].trunkPort)
	}
	return err
}

// Leave removes the viewer; a site whose last viewer leaves is
// unsubscribed (trunk budgets released, core leaf pruned). Idempotent.
func (lj *LiveJoin) Leave() error {
	if lj.done {
		return nil
	}
	lj.done = true
	ch := lj.ch
	if ch.closed {
		return nil
	}
	err := lj.j.Leave()
	if ch.trees[lj.site].Viewers() == 0 {
		_ = ch.pruneSite(lj.site)
	}
	return err
}

// Close takes the channel off the air everywhere, remote sites first in
// index order: every site's subtree, the core leaves and the trunk
// holds all release. Idempotent; returns the first teardown error.
func (ch *LiveChannel) Close() error {
	if ch.closed {
		return nil
	}
	var err error
	for site := range ch.m.members {
		if perr := ch.pruneSite(site); err == nil {
			err = perr
		}
	}
	if cerr := ch.trees[ch.home].Close(); err == nil {
		err = cerr
	}
	ch.closed = true
	return err
}

// traceTrunkRefusal records a trunk-refused join in the shared trace
// with the trunk leg's headroom, mirroring spill refusals.
func (ch *LiveChannel) traceTrunkRefusal(site int, err error) {
	tr := ch.m.tracer
	if tr == nil {
		return
	}
	th := ch.m.members[ch.home].Trunk.Headroom()
	if h := ch.m.members[site].Trunk.Headroom(); h < th {
		th = h
	}
	tr.Record(tr.GlobalShard(), telemetry.Event{
		T:     ch.m.clock.Now(),
		Event: "join-refused",
		Node:  ch.spec.Title,
		Leg:   core.LegTrunk.String(),
		Err:   err.Error(),
		Legs:  []telemetry.LegSample{{Leg: core.LegTrunk.String(), OK: false, Headroom: th}},
	})
}
