package fileserver

import (
	"errors"
	"fmt"

	"repro/internal/mcache"
	"repro/internal/sim"
)

// This file is the node's RAM buffer tier: *interval caching* over the
// round scheduler. The paper's storage-hierarchy argument (and the
// Zipf head of any real catalog) says hot content should be served
// from memory, not re-read from the arrays — but caching whole videos
// is hopeless (§5: by the time one viewer finishes, the beginning is
// long evicted). Interval caching keeps only the *wake* between two
// concurrent viewers of the same title:
//
//   - every full-quality window a disk-backed stream fetches is
//     inserted into the wake store as it lands (the stream is then a
//     *feeder*);
//   - a newcomer trailing a feeder by Δ bytes can be admitted
//     *cache-served* when the windows it will play next — the
//     feeder's last Δ bytes of wake — are resident: it charges ZERO
//     disk round budget and reads every window from memory, at the
//     cost of keeping Δ bytes pinned (steady state: the feeder
//     inserts one window per round, the follower consumes one, the
//     interval never grows);
//   - a title wholly resident admits followers with no feeder at all
//     (resident mode — the Zipf head after its first play-through);
//   - the *demotion path*: a follower whose window is not resident
//     after all (evicted under pressure, its leader closed mid-title)
//     re-admits against the disk budget on the spot, or — when the
//     disks are full too — stalls that round and retries, counting an
//     underrun exactly as admission control predicts.
//
// Pinning is an eviction *heuristic* (the protect span below);
// residency at each fetch plus the demotion path is the correctness
// backstop, so admission never promises memory it cannot prove.
//
// Cache admission is full-quality only: degraded tiers fetch windows
// of a different size, which would fragment the wake into unusable
// geometries. A cache-served stream that is reshaped demotes to disk
// admission first.

// ErrNoWake reports a cache admission refused because no usable wake
// exists: interval caching disabled, no feeder within the window,
// required windows not resident, or the pin budget exhausted. It is an
// over-subscription-shaped refusal: callers fall back to disk
// admission.
var ErrNoWake = errors.New("fileserver: no cached wake can serve the stream")

// wakeKey names one round window of one title in the wake store.
type wakeKey struct {
	path string
	off  int64
}

// titleWake is the per-title interval state: which streams feed the
// wake (disk-backed, full tier), which ride it (cache-served), and how
// many trailing bytes of each feeder's wake are protected from
// eviction on their behalf.
type titleWake struct {
	path string
	rb   int64 // full-tier window size (bytes per round)
	size int64 // title length

	feeders   []*CMStream // disk-backed full-tier streams: they insert wake
	followers []*CMStream // cache-served streams: they read it

	// protect is the eviction-protected span: a window within protect
	// bytes behind some feeder's fetch position is never evicted; a
	// protect equal to size pins the whole title (resident mode).
	protect int64
}

// intervalCache is one serving node's RAM tier over its CMService.
type intervalCache struct {
	svc    *CMService
	lru    *mcache.LRU[wakeKey, []byte]
	titles map[string]*titleWake

	// pinned is the sum of per-title protect spans — the memory the
	// cache has promised to followers. Admission keeps it within
	// capacity; the per-title union accounting means ten followers on
	// one resident title pin it once, not ten times.
	pinned int64
}

func newIntervalCache(svc *CMService, capacity int64) *intervalCache {
	ic := &intervalCache{
		svc:    svc,
		lru:    mcache.New[wakeKey, []byte](capacity),
		titles: make(map[string]*titleWake),
	}
	ic.lru.SetProtect(ic.protected)
	return ic
}

func wmod(a, m int64) int64 {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

// protected is the eviction veto: a window is pinned while it lies
// within its title's protect span behind some feeder (or the whole
// title is pinned).
func (ic *intervalCache) protected(k wakeKey) bool {
	tw := ic.titles[k.path]
	if tw == nil || tw.protect == 0 {
		return false
	}
	if tw.protect >= tw.size {
		return true
	}
	for _, f := range tw.feeders {
		if wmod(f.fetchOff-tw.rb-k.off, tw.size) < tw.protect {
			return true
		}
	}
	return false
}

// window returns the resident wake window at (path, off) if it has the
// expected geometry, promoting it in recency order.
func (ic *intervalCache) window(path string, off, n int64) ([]byte, bool) {
	data, ok := ic.lru.Get(wakeKey{path, off})
	if !ok || int64(len(data)) != n {
		return nil, false
	}
	return data, true
}

// insert files one freshly fetched full-tier window into the wake
// store. The slice is aliased, not copied — the wake IS the feeder's
// buffer, and a hit aliases it again into the follower's: windows are
// immutable once fetched (playout and the wire only read them).
func (ic *intervalCache) insert(cm *CMStream, off int64, data []byte) {
	if cm.frameBytes != cm.fullFrameBytes || int64(len(data)) != cm.roundBytes {
		return
	}
	ic.lru.Put(wakeKey{cm.path, off}, data, int64(len(data)))
}

// ensureTitle returns (creating if needed) the wake state for a title.
func (ic *intervalCache) ensureTitle(path string, rb, size int64) *titleWake {
	tw := ic.titles[path]
	if tw == nil {
		tw = &titleWake{path: path, rb: rb, size: size}
		ic.titles[path] = tw
	}
	return tw
}

// followerSpan is the wake span one follower needs protected: its
// interval to the nearest feeder ahead plus one window of slack, or
// the whole title when it rides residency alone.
func (tw *titleWake) followerSpan(f *CMStream) int64 {
	if len(tw.feeders) == 0 {
		return tw.size
	}
	best := tw.size
	for _, l := range tw.feeders {
		if d := wmod(l.fetchOff-f.fetchOff, tw.size); d > 0 && d < best {
			best = d
		}
	}
	if best+tw.rb > tw.size {
		return tw.size
	}
	return best + tw.rb
}

// recomputeProtect refreshes a title's protect span (the max of its
// followers' spans) and the service-wide pinned total. A span that
// widened past what the cache can hold (a departing feeder stretches
// its followers' intervals) is clipped to fit: pinning is only the
// eviction heuristic, and the residency check at each fetch plus
// demotion stay the backstop.
func (ic *intervalCache) recomputeProtect(tw *titleWake) {
	var p int64
	for _, f := range tw.followers {
		if s := tw.followerSpan(f); s > p {
			p = s
		}
	}
	if room := ic.lru.Capacity() - (ic.pinned - tw.protect); p > room {
		p = room
	}
	ic.pinned += p - tw.protect
	tw.protect = p
	if len(tw.feeders) == 0 && len(tw.followers) == 0 {
		delete(ic.titles, tw.path)
	}
}

func removeStream(list *[]*CMStream, cm *CMStream) {
	for i, s := range *list {
		if s == cm {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return
		}
	}
}

// admitFeeder registers a freshly admitted (or re-promoted) disk-backed
// full-tier stream as a wake feeder.
func (ic *intervalCache) admitFeeder(cm *CMStream) {
	if cm.frameBytes != cm.fullFrameBytes {
		return
	}
	tw := ic.ensureTitle(cm.path, cm.roundBytes, cm.size)
	if tw.rb != cm.roundBytes {
		return // geometry clash with an existing wake; do not feed it
	}
	for _, f := range tw.feeders {
		if f == cm {
			return
		}
	}
	tw.feeders = append(tw.feeders, cm)
	ic.recomputeProtect(tw)
}

// demoted moves a follower that just re-admitted against the disks
// onto the feeder side of its title's wake.
func (ic *intervalCache) demoted(cm *CMStream) {
	tw := ic.titles[cm.path]
	if tw == nil {
		return
	}
	removeStream(&tw.followers, cm)
	ic.recomputeProtect(tw)
	ic.admitFeeder(cm)
}

// reshaped updates a disk-backed stream's feeder registration after a
// tier change: a degraded stream fetches misaligned windows and stops
// feeding the wake; one restored to full quality feeds again.
func (ic *intervalCache) reshaped(cm *CMStream) {
	tw := ic.titles[cm.path]
	if cm.frameBytes == cm.fullFrameBytes {
		ic.admitFeeder(cm)
		return
	}
	if tw == nil {
		return
	}
	removeStream(&tw.feeders, cm)
	ic.feederLost(tw)
	ic.recomputeProtect(tw)
}

// release drops a stream from its title's wake state on teardown. When
// the released stream was the title's last feeder, every follower
// either continues in resident mode (the whole title is in RAM) or
// demotes to disk admission — the leader-closed demotion path. The
// teardown just freed the leader's round cost, so the first demotion
// always fits.
func (ic *intervalCache) release(cm *CMStream) {
	tw := ic.titles[cm.path]
	if tw == nil {
		return
	}
	if cm.cacheServed {
		removeStream(&tw.followers, cm)
	} else {
		removeStream(&tw.feeders, cm)
		ic.feederLost(tw)
	}
	ic.recomputeProtect(tw)
}

// feederLost demotes followers a title can no longer cache-serve: with
// no feeder left, only full residency keeps a follower on the RAM
// tier. A demotion the disk budget refuses leaves the follower
// cache-served; it stalls and retries at each fetch until budget frees
// (counting underruns meanwhile — the backstop, not the plan).
func (ic *intervalCache) feederLost(tw *titleWake) {
	if len(tw.feeders) > 0 {
		return
	}
	if ic.resident(tw.path, tw.rb, tw.size) {
		return
	}
	for _, f := range append([]*CMStream(nil), tw.followers...) {
		ic.svc.demoteToDisk(f)
	}
}

// resident reports whether every window of the title is in the wake
// store with the expected geometry.
func (ic *intervalCache) resident(path string, rb, size int64) bool {
	for off := int64(0); off < size; off += rb {
		data, ok := ic.lru.Peek(wakeKey{path, off})
		if !ok || int64(len(data)) != rb {
			return false
		}
	}
	return true
}

// cachePlan decides whether a full-quality stream of path could be
// admitted cache-served right now, and the protect span the new
// follower would need. It holds nothing. Refusals that disk admission
// can cure return ErrNoWake; geometry errors surface as ErrBadStream /
// ErrBadRound exactly like Admit's.
func (svc *CMService) cachePlan(path string, frameBytes, frameHz int) (span int64, err error) {
	ic := svc.cache
	if ic == nil {
		return 0, fmt.Errorf("%w: interval caching disabled", ErrNoWake)
	}
	st, ok := svc.sv.files[path]
	if !ok || !st.continuous {
		return 0, fmt.Errorf("%w: %s", ErrBadStream, path)
	}
	rb, err := svc.streamRoundBytes(frameBytes, frameHz)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if st.size < rb || st.size%rb != 0 {
		return 0, fmt.Errorf("%w: %s: %d bytes is not a whole number of %d-byte rounds",
			ErrBadStream, path, st.size, rb)
	}
	tw := ic.titles[path]
	if tw != nil && tw.rb != rb {
		return 0, fmt.Errorf("%w: %s: wake geometry is %d bytes/round, stream needs %d",
			ErrNoWake, path, tw.rb, rb)
	}
	span = -1
	// Plan A — trail the nearest feeder: every window from the title's
	// start to the feeder's position must be resident (the follower
	// starts at 0 and plays exactly this wake).
	if tw != nil && len(tw.feeders) > 0 {
		delta := int64(0)
		for _, l := range tw.feeders {
			if d := wmod(l.fetchOff, st.size); d >= rb && (delta == 0 || d < delta) {
				delta = d
			}
		}
		if delta > 0 {
			ok := true
			for off := int64(0); off < delta; off += rb {
				if data, res := ic.lru.Peek(wakeKey{path, off}); !res || int64(len(data)) != rb {
					ok = false
					break
				}
			}
			if ok {
				span = delta + rb
				if span > st.size {
					span = st.size
				}
			}
		}
	}
	// Plan B — resident mode: the whole title is in RAM, no feeder
	// needed (and no interval to ever stretch).
	if span < 0 && ic.resident(path, rb, st.size) {
		span = st.size
	}
	if span < 0 {
		return 0, fmt.Errorf("%w: %s: wake not resident", ErrNoWake, path)
	}
	// The pin guard: the cache must be able to keep what this follower
	// will rely on, on top of everything already promised.
	newProtect := span
	if tw != nil && tw.protect > newProtect {
		newProtect = tw.protect
	}
	old := int64(0)
	if tw != nil {
		old = tw.protect
	}
	if ic.pinned+(newProtect-old) > ic.lru.Capacity() {
		return 0, fmt.Errorf("%w: %s: pin budget exhausted (%d of %d pinned)",
			ErrNoWake, path, ic.pinned, ic.lru.Capacity())
	}
	return span, nil
}

// CanServeCached reports whether AdmitCached would accept a
// full-quality stream of path right now — the cache leg's probe,
// holding nothing.
func (svc *CMService) CanServeCached(path string, frameBytes, frameHz int) bool {
	_, err := svc.cachePlan(path, frameBytes, frameHz)
	return err == nil
}

// AdmitCached admits a full-quality stream served from the RAM tier:
// it charges no disk round time at all — the stream reads the wake of
// a leader (or a wholly resident title) instead of the array. The
// refusal for a missing or unprotectable wake is ErrNoWake; callers
// fall back to Admit. Cache-served streams reshape by demoting to disk
// admission first, and demote automatically if their wake evaporates.
func (svc *CMService) AdmitCached(path string, frameBytes, frameHz int) (*CMStream, error) {
	_, err := svc.cachePlan(path, frameBytes, frameHz)
	if err != nil {
		return nil, err
	}
	st := svc.sv.files[path]
	rb, _ := svc.streamRoundBytes(frameBytes, frameHz)
	svc.Stats.Admitted++
	svc.Stats.CacheAdmitted++
	svc.nextID++
	cm := &CMStream{
		svc:            svc,
		id:             svc.nextID,
		path:           path,
		frameBytes:     frameBytes,
		fullFrameBytes: frameBytes,
		roundBytes:     rb,
		cost:           0,
		size:           st.size,
		cacheServed:    true,
	}
	svc.streams = append(svc.streams, cm)
	tw := svc.cache.ensureTitle(path, rb, st.size)
	tw.followers = append(tw.followers, cm)
	svc.cache.recomputeProtect(tw)
	// Prime the first window; the plan just proved it resident, so this
	// completes synchronously from the wake.
	svc.fetch(cm, 0, false)
	return cm, nil
}

// demoteToDisk re-admits a cache-served stream against the disk round
// budget in place — the demotion path for a closed leader or an
// evicted wake. It reports false (and changes nothing) when the disks
// are full; the stream then stalls and retries at its next fetch.
func (svc *CMService) demoteToDisk(cm *CMStream) bool {
	if !cm.cacheServed {
		return true
	}
	cost := svc.CostPerRound(cm.roundBytes)
	if !svc.Fits(cost) {
		return false
	}
	svc.demote(cm, cost)
	return true
}

// demote moves a cache-served stream, already at its disk geometry,
// onto the disks at cost per round — the one demotion path, shared by
// an evaporated wake and a reshape off the RAM tier. The caller has
// checked that cost fits.
func (svc *CMService) demote(cm *CMStream, cost sim.Duration) {
	svc.committed += cost
	cm.cost = cost
	cm.cacheServed = false
	svc.Stats.CacheDemotions++
	if svc.cache != nil {
		svc.cache.demoted(cm)
	}
	if svc.OnDemote != nil {
		svc.OnDemote(cm)
	}
}

// CacheServed reports whether the stream is currently served from the
// RAM tier (zero disk round budget held).
func (cm *CMStream) CacheServed() bool { return cm.cacheServed }

// CacheEnabled reports whether the node has an interval-caching RAM
// tier.
func (svc *CMService) CacheEnabled() bool { return svc.cache != nil }

// CacheCapacity reports the RAM tier's size in bytes (0 when
// disabled).
func (svc *CMService) CacheCapacity() int64 {
	if svc.cache == nil {
		return 0
	}
	return svc.cache.lru.Capacity()
}

// CacheUsed reports resident wake bytes.
func (svc *CMService) CacheUsed() int64 {
	if svc.cache == nil {
		return 0
	}
	return svc.cache.lru.Used()
}

// CachePinned reports the wake bytes promised to cache-served
// followers — the admission-relevant figure (CacheUsed may exceed it:
// unpinned wake is retained opportunistically).
func (svc *CMService) CachePinned() int64 {
	if svc.cache == nil {
		return 0
	}
	return svc.cache.pinned
}
