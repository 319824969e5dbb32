package metro

// The LF-style replicated title catalog. The catalog is the small,
// slowly-changing metadata set — title → {version, holder sites, size,
// frame geometry} — and every site stores all of it, so the spill
// candidate lookup in OpenSession never leaves the viewer's home site.
// Writes stamp a metro-wide monotonic version; replicas reconcile
// pairwise around a ring at anti-entropy ticks (one event each, so a
// round is atomic with respect to the data plane). Bulk title bytes
// are NOT replicated eagerly: they follow demand, riding the
// best-effort slack-copy path cross-site once a title's spill pressure
// at one home site crosses Config.SpillThreshold.

import (
	"sort"

	"repro/internal/vodsite"
)

// entry is one site's view of one catalog row.
type entry struct {
	Version    int64
	Holders    []int // sorted site indices
	Bytes      int64
	FrameBytes int
	FrameHz    int
}

func (e *entry) clone() *entry {
	ne := *e
	ne.Holders = append([]int(nil), e.Holders...)
	return &ne
}

// holdsSite reports whether sorted holder set hs contains site idx.
func holdsSite(hs []int, idx int) bool {
	i := sort.SearchInts(hs, idx)
	return i < len(hs) && hs[i] == idx
}

func insertSite(hs []int, idx int) []int {
	i := sort.SearchInts(hs, idx)
	if i < len(hs) && hs[i] == idx {
		return hs
	}
	hs = append(hs, 0)
	copy(hs[i+1:], hs[i:])
	hs[i] = idx
	return hs
}

func removeSite(hs []int, idx int) []int {
	i := sort.SearchInts(hs, idx)
	if i < len(hs) && hs[i] == idx {
		return append(hs[:i], hs[i+1:]...)
	}
	return hs
}

// AddTitle registers a title metro-wide: the bytes land on the holder
// sites' vodsite catalogs (placement assigns their nodes), and every
// member's catalog replica gets the row at the same version.
func (m *Controller) AddTitle(name string, bytes int64, frameBytes, frameHz int, holders []int) {
	hs := []int{}
	for _, h := range holders {
		if h < 0 || h >= len(m.members) {
			panic("metro: AddTitle holder out of range")
		}
		hs = insertSite(hs, h)
	}
	m.titles = append(m.titles, name)
	m.catVersion++
	for _, mb := range m.members {
		mb.cat[name] = &entry{
			Version: m.catVersion, Holders: append([]int(nil), hs...),
			Bytes: bytes, FrameBytes: frameBytes, FrameHz: frameHz,
		}
	}
	for _, h := range hs {
		m.members[h].Ctrl.AddTitle(name, bytes, frameBytes, frameHz)
	}
}

// Titles returns the metro catalog's title names in AddTitle order.
func (m *Controller) Titles() []string { return m.titles }

// CatalogView is one site's view of one replicated catalog row.
type CatalogView struct {
	Version int64
	Holders []int
	Bytes   int64
}

// CatalogView returns this member's current view of a title's row
// (copied), and whether the row exists in its replica at all.
func (mb *Member) CatalogView(title string) (CatalogView, bool) {
	e := mb.cat[title]
	if e == nil {
		return CatalogView{}, false
	}
	return CatalogView{
		Version: e.Version,
		Holders: append([]int(nil), e.Holders...),
		Bytes:   e.Bytes,
	}, true
}

// syncTick is the self-re-arming anti-entropy heartbeat.
func (m *Controller) syncTick() {
	m.SyncCatalog()
	m.sim.After(syncEvery, m.syncTick)
}

// SyncCatalog runs one anti-entropy round: each alive site exchanges
// versions with its ring successor and both adopt the newer row per
// title. Returns the number of rows brought up to date. With every
// site alive, one round per ring edge bounds staleness at K ticks;
// in practice a hot row crosses the whole ring in ceil(K/2) rounds.
// The sync tick calls it; tests and benchmarks may call it directly.
func (m *Controller) SyncCatalog() int {
	var alive []int
	for _, mb := range m.members {
		if !mb.failed {
			alive = append(alive, mb.Index)
		}
	}
	if len(alive) < 2 {
		return 0
	}
	reconciled := 0
	for k, i := range alive {
		j := alive[(k+1)%len(alive)]
		reconciled += m.exchange(m.members[i], m.members[j])
	}
	m.Stats.CatalogSyncs++
	m.Stats.CatalogReconciled += int64(reconciled)
	return reconciled
}

// exchange reconciles two sites' replicas over the sorted union of
// their keys (sorted so every run replays the identical merge order):
// the higher version wins in both directions.
func (m *Controller) exchange(a, b *Member) int {
	keys := make([]string, 0, len(a.cat))
	for k := range a.cat {
		keys = append(keys, k)
	}
	for k := range b.cat {
		if _, ok := a.cat[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	n := 0
	for _, k := range keys {
		ea, eb := a.cat[k], b.cat[k]
		switch {
		case ea == nil:
			a.cat[k] = eb.clone()
			n++
		case eb == nil:
			b.cat[k] = ea.clone()
			n++
		case ea.Version > eb.Version:
			b.cat[k] = ea.clone()
			n++
		case eb.Version > ea.Version:
			a.cat[k] = eb.clone()
			n++
		}
	}
	return n
}

// maybeCopy triggers a lazy cross-site byte replication when a title's
// spill pressure at its home site crosses the threshold and the home
// site does not hold the bytes. The copy itself is pure background
// traffic: a vodsite.TitleCopy off the least-loaded node holding the
// title at the nearest holder site onto the home site's least-loaded
// node, then activated via AdoptReplica — from that point the home
// site admits the title on its own capacity.
func (m *Controller) maybeCopy(home int, title string) {
	if m.cfg.SpillThreshold < 0 {
		return
	}
	hm := m.members[home]
	if hm.pressure[title] < m.cfg.SpillThreshold || hm.Ctrl.Lookup(title) != nil {
		return
	}
	for _, cp := range m.copies {
		if cp.home == home && cp.Name == title {
			return
		}
	}
	var sm *Member
	m.spillCandidates(hm, title, func(c *Member) bool { sm = c; return false })
	if sm == nil {
		return
	}
	src := leastLoadedNode(sm.Ctrl.Lookup(title).Replicas())
	dst := leastLoadedNode(hm.Ctrl.Nodes())
	if src == nil || dst == nil {
		return
	}
	hm.pressure[title] = 0
	ent := hm.cat[title]
	cp := &metroCopy{m: m, home: home, from: sm.Index, fb: ent.FrameBytes, hz: ent.FrameHz}
	cp.TitleCopy = vodsite.TitleCopy{Src: src, Dst: dst, Name: title, Bytes: ent.Bytes,
		Chunk: vodsite.CopyChunk, Done: cp.done, Aborted: cp.aborted}
	m.copies = append(m.copies, cp)
	m.Stats.CrossCopiesTriggered++
	cp.Start()
}

// leastLoadedNode picks, among nodes, the alive started one carrying
// the fewest streams, node ID breaking ties — deterministic and cheap;
// the intra-site replication machinery owns the finer bottleneck
// ranking.
func leastLoadedNode(nodes []*vodsite.Node) *vodsite.Node {
	var best *vodsite.Node
	for _, n := range nodes {
		if n.Failed() || n.SS.CM == nil {
			continue
		}
		if best == nil || n.Streams() < best.Streams() ||
			(n.Streams() == best.Streams() && n.ID < best.ID) {
			best = n
		}
	}
	return best
}

// metroCopy is one cross-site background replication: a
// vodsite.TitleCopy whose source and destination nodes live on
// different sites, plus the catalog activation.
type metroCopy struct {
	vodsite.TitleCopy
	m          *Controller
	home, from int
	fb, hz     int
}

// done activates the replica: the home site's vodsite catalog learns
// the title (AddTitle if this is its first sight of it, AdoptReplica
// for the node), and the home's catalog row gains itself as a holder
// at a fresh version for anti-entropy to spread.
func (cp *metroCopy) done() {
	m := cp.m
	m.removeCopy(cp)
	hm := m.members[cp.home]
	if hm.failed || cp.Dst.Failed() {
		m.Stats.CrossCopiesAborted++
		return
	}
	t := hm.Ctrl.Lookup(cp.Name)
	if t == nil {
		t = hm.Ctrl.AddTitle(cp.Name, cp.Bytes, cp.fb, cp.hz)
	}
	hm.Ctrl.AdoptReplica(t, cp.Dst)
	if ent := hm.cat[cp.Name]; ent != nil && !holdsSite(ent.Holders, cp.home) {
		m.catVersion++
		ne := ent.clone()
		ne.Version = m.catVersion
		ne.Holders = insertSite(ne.Holders, cp.home)
		hm.cat[cp.Name] = ne
	}
	m.Stats.CrossCopiesCompleted++
	if cb := m.OnReplica; cb != nil {
		cb(cp.home, cp.Name)
	}
}

func (cp *metroCopy) aborted() {
	cp.m.removeCopy(cp)
	cp.m.Stats.CrossCopiesAborted++
}

// Copying reports cross-site copies in flight.
func (m *Controller) Copying() int { return len(m.copies) }

func (m *Controller) removeCopy(cp *metroCopy) {
	for i, x := range m.copies {
		if x == cp {
			m.copies = append(m.copies[:i], m.copies[i+1:]...)
			return
		}
	}
}
