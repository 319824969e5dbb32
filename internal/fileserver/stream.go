package fileserver

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

// This file is the continuous-media *serving* stack: the piece that
// turns stored streams back into guaranteed-rate traffic. Where media.go
// records and indexes streams, the CMService plays them out under a real
// resource guarantee, mirroring at the disk what netsig does at the
// links:
//
//   - admission charges each stream's per-round disk time (seek-
//     amortised positioning plus worst-disk transfer, derived from
//     disk.Params and the array geometry) against a per-disk time
//     budget, refusing streams the heads cannot carry;
//   - a round-based scheduler batches every admitted stream's next
//     read-ahead window once per round, issued in SCAN order of disk
//     address so actual seek cost stays below the budgeted bound;
//   - reads go through the striped array, so a stream's round window is
//     served by several spindles in parallel;
//   - each stream is double-buffered in whole rounds: the window being
//     played was fetched last round, the next one is fetched this
//     round, and a playout tick never waits on a disk.
//
// Over-subscription is therefore refused at Admit time; an admitted
// stream underruns only if a round overruns, which the admission bound
// prevents. Best-effort reads fill whatever slack a round leaves.

// CM errors.
var (
	// ErrBadStream reports a file that cannot be served as a stream
	// (missing, not continuous, or not a whole number of rounds long).
	ErrBadStream = errors.New("fileserver: not a servable stream")
	// ErrBadRound reports a CMConfig round that is not a whole number of
	// frame periods.
	ErrBadRound = errors.New("fileserver: round is not a whole number of frame periods")
)

// CMConfig parameterises the continuous-media serving service.
type CMConfig struct {
	// Round is the scheduler period: each admitted stream gets one
	// read-ahead window per round. Default 2 s. Longer rounds amortise
	// seeks better (more admitted streams) at the cost of more buffer
	// memory and startup delay.
	Round sim.Duration
	// Utilization is the admittable fraction of each round's per-disk
	// time; the remainder absorbs model error (segment-boundary seeks,
	// stripe skew) and feeds best-effort traffic. Default 0.85. Values
	// above 1 deliberately over-commit the disks — the ablation that
	// shows why admission control exists.
	Utilization float64
	// CacheBytes sizes the node's RAM buffer tier for interval caching
	// (0 disables it). See cache.go: full-quality windows fetched from
	// the array are retained as a wake, and a stream trailing another
	// viewer of the same title can be admitted against this memory
	// instead of the disk round budget.
	CacheBytes int64
}

func (c *CMConfig) setDefaults() {
	if c.Round == 0 {
		c.Round = 2 * sim.Second
	}
	if c.Utilization == 0 {
		c.Utilization = 0.85
	}
}

// CMStats counts serving-side activity.
type CMStats struct {
	Admitted int64 // streams admitted
	Refused  int64 // streams refused for lack of disk bandwidth
	Released int64 // streams released (teardown)

	Rounds        int64
	RoundOverruns int64 // rounds whose guaranteed reads outlived the round
	Underruns     int64 // playout ticks that found no buffered data

	GuaranteedReads  int64 // round-scheduled window fetches issued
	BytesStreamed    int64 // bytes delivered into stream buffers
	BestEffortServed int64 // best-effort reads issued into round slack
	ReadErrors       int64

	Reshaped       int64 // in-place rate renegotiations that took effect
	ReshapeRefused int64 // grow renegotiations the budget could not carry

	// RAM tier (interval caching, cache.go).
	CacheAdmitted    int64 // streams admitted cache-served (zero disk budget)
	CacheHits        int64 // round windows served from the wake store
	CacheMisses      int64 // cache-served fetches that found no wake
	CacheBytesServed int64 // bytes served from the wake store
	CacheDemotions   int64 // cache-served streams re-admitted against the disks
	CacheStalls      int64 // cache misses the disk budget could not absorb
}

// roundFetch is one window of a round's guaranteed batch: stream cm's
// buffer b, to be read at array address addr.
type roundFetch struct {
	cm   *CMStream
	b    int
	addr int64
}

// beReq is one queued best-effort read.
type beReq struct {
	path string
	off  int64
	n    int
	done func([]byte, error)
}

// ErrOverCommit reports a stream the CMService refused: admitting it
// (or growing it) would push the per-disk time committed each round past
// the round budget. Errors wrapping it name the path, the cost and the
// committed/budget figures.
var ErrOverCommit = errors.New("fileserver: media bandwidth exhausted")

// CMService is the continuous-media serving service over one server's
// disk array: admission control plus the round scheduler.
type CMService struct {
	sv  *Server
	cfg CMConfig

	// Array geometry and mechanics, captured at construction.
	mech      disk.Params
	pos       sim.Duration // charged per head repositioning
	chunk     int64
	segSize   int64
	dataDisks int64

	budget    sim.Duration // admittable per-disk time per round
	committed sim.Duration // currently admitted per-disk time per round

	streams []*CMStream
	nextID  int

	ticker      *sim.Ticker
	outstanding int          // guaranteed reads still in flight this round
	batch       []roundFetch // round's scratch, kept for its capacity

	bestEffort []beReq

	cache *intervalCache // RAM buffer tier; nil when CacheBytes == 0

	Stats CMStats

	// OnUnderrun, when set, observes every playout tick that found no
	// buffered data.
	OnUnderrun func(*CMStream)
	// OnDemote, when set, observes every cache-served stream re-admitted
	// against the disks (wake evaporated).
	OnDemote func(*CMStream)
}

// NewCMService starts a serving service over the server's array. The
// round scheduler ticks from one round after now.
func NewCMService(sv *Server, cfg CMConfig) *CMService {
	cfg.setDefaults()
	arr := sv.fs.Array()
	p := arr.Params()
	svc := &CMService{
		sv:        sv,
		cfg:       cfg,
		mech:      p,
		pos:       p.AvgPosition(),
		chunk:     int64(arr.ChunkSize()),
		segSize:   int64(arr.SegmentSize()),
		dataDisks: raid.DataDisks,
		budget:    sim.Duration(float64(cfg.Round) * cfg.Utilization),
	}
	if cfg.CacheBytes > 0 {
		svc.cache = newIntervalCache(svc, cfg.CacheBytes)
	}
	svc.ticker = sv.sim.Tick(sv.sim.Now()+cfg.Round, cfg.Round, svc.round)
	return svc
}

// Stop halts the round scheduler (tests; a site never stops serving).
func (svc *CMService) Stop() { svc.ticker.Stop() }

// Round reports the scheduler period.
func (svc *CMService) Round() sim.Duration { return svc.cfg.Round }

// Capacity reports the admittable per-disk time per round.
func (svc *CMService) Capacity() sim.Duration { return svc.budget }

// Committed reports the admitted per-disk time per round — the disk
// analogue of netsig.Manager.Committed.
func (svc *CMService) Committed() sim.Duration { return svc.committed }

// Open reports currently admitted streams.
func (svc *CMService) Open() int { return len(svc.streams) }

// CostPerRound is the per-disk time one stream charges per round for a
// window of the given size: one repositioning per segment the window
// touches (SCAN makes the real cost lower) plus the transfer time of
// the most-loaded disk's share of the stripe.
func (svc *CMService) CostPerRound(windowBytes int64) sim.Duration {
	chunks := (windowBytes + svc.chunk - 1) / svc.chunk
	worstDisk := (chunks + svc.dataDisks - 1) / svc.dataDisks * svc.chunk
	positionings := 1 + (windowBytes+svc.segSize-1)/svc.segSize
	return svc.pos*sim.Duration(positionings) + svc.mech.TransferTime(worstDisk)
}

// streamRoundBytes validates frameBytes×frameHz against the round and
// reports the per-round window size.
func (svc *CMService) streamRoundBytes(frameBytes, frameHz int) (int64, error) {
	if frameBytes <= 0 || frameHz <= 0 {
		return 0, fmt.Errorf("%w: non-positive rate", ErrBadStream)
	}
	ticks := int64(frameHz) * int64(svc.cfg.Round)
	if ticks%int64(sim.Second) != 0 || ticks < int64(sim.Second) {
		return 0, fmt.Errorf("%w: %v at %d Hz", ErrBadRound, svc.cfg.Round, frameHz)
	}
	return ticks / int64(sim.Second) * int64(frameBytes), nil
}

// StreamCost reports the per-disk round time a stream at frameBytes ×
// frameHz would charge — the probe half of Admit, for replica selection
// and site-level admission checks that must hold nothing.
func (svc *CMService) StreamCost(frameBytes, frameHz int) (sim.Duration, error) {
	rb, err := svc.streamRoundBytes(frameBytes, frameHz)
	if err != nil {
		return 0, err
	}
	return svc.CostPerRound(rb), nil
}

// CanServe reports whether Admit would accept a stream at frameBytes ×
// frameHz right now — the budget half of admission without the
// per-file validation, holding nothing.
func (svc *CMService) CanServe(frameBytes, frameHz int) bool {
	cost, err := svc.StreamCost(frameBytes, frameHz)
	return err == nil && svc.Fits(cost)
}

// Fits reports whether cost more per-disk time per round fits the round
// budget — the disk admission rule, committed+cost ≤ budget, and the
// only place it is written. It holds nothing.
func (svc *CMService) Fits(cost sim.Duration) bool {
	return svc.committed+cost <= svc.budget
}

// cmBuf is one round window of a stream's double buffer. frameBytes is
// the frame size the window was fetched under: a reshape between two
// fetches changes the stream's geometry, but a buffered window always
// holds exactly framesPerRound frames of its own size, so playout
// drains exactly one window per round whatever the tier.
type cmBuf struct {
	data       []byte
	frameBytes int
	ready      bool
	fetching   bool
}

// CMStream is one admitted stream: a rate reservation plus its
// double-buffered read-ahead state. Call NextFrame from the playout
// clock; call Release on teardown.
type CMStream struct {
	svc  *CMService
	id   int
	path string

	frameBytes     int   // bytes served per frame (current tier)
	fullFrameBytes int   // bytes stored per frame (the ceiling Reshape may grow back to)
	roundBytes     int64 // bytes fetched per round at the current tier
	cost           sim.Duration
	size           int64 // title length; playout loops over it

	fetchOff int64
	bufs     [2]cmBuf
	cur      int // buffer being played
	pos      int // playout position within bufs[cur]

	started  bool // first window arrived and a round boundary passed
	onReady  func()
	released bool

	// cacheServed marks a stream admitted against the RAM tier: it
	// holds zero disk round budget and reads every window from another
	// viewer's wake, demoting to disk admission if the wake evaporates.
	cacheServed bool

	Underruns int64
}

// Admit reserves disk bandwidth for serving path at frameBytes×frameHz
// and starts its read-ahead. It refuses (ErrOverCommit) when the disks
// are already committed — the storage half of end-to-end admission.
// The file must be continuous and a whole number of rounds long.
func (svc *CMService) Admit(path string, frameBytes, frameHz int) (*CMStream, error) {
	return svc.AdmitDegraded(path, frameBytes, frameBytes, frameHz)
}

// AdmitDegraded admits a stream whose *stored* geometry is
// fullFrameBytes×frameHz but which is served at serveFrameBytes per
// frame — the degraded tier of a scalable stream, admitted degraded
// from birth. Validation (continuity, whole rounds) runs against the
// stored geometry; cost and the budget charge run against the served
// one. With serveFrameBytes == fullFrameBytes this is exactly Admit.
func (svc *CMService) AdmitDegraded(path string, fullFrameBytes, serveFrameBytes, frameHz int) (*CMStream, error) {
	st, ok := svc.sv.files[path]
	if !ok || !st.continuous {
		return nil, fmt.Errorf("%w: %s", ErrBadStream, path)
	}
	fullRound, err := svc.streamRoundBytes(fullFrameBytes, frameHz)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if st.size < fullRound || st.size%fullRound != 0 {
		return nil, fmt.Errorf("%w: %s: %d bytes is not a whole number of %d-byte rounds",
			ErrBadStream, path, st.size, fullRound)
	}
	if serveFrameBytes > fullFrameBytes {
		return nil, fmt.Errorf("%w: %s: served tier %d exceeds stored frame %d",
			ErrBadStream, path, serveFrameBytes, fullFrameBytes)
	}
	roundBytes, err := svc.streamRoundBytes(serveFrameBytes, frameHz)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cost := svc.CostPerRound(roundBytes)
	if !svc.Fits(cost) {
		svc.Stats.Refused++
		return nil, fmt.Errorf("%w: %s needs %v/round, %v of %v committed",
			ErrOverCommit, path, cost, svc.committed, svc.budget)
	}
	svc.committed += cost
	svc.Stats.Admitted++
	svc.nextID++
	cm := &CMStream{
		svc:            svc,
		id:             svc.nextID,
		path:           path,
		frameBytes:     serveFrameBytes,
		fullFrameBytes: fullFrameBytes,
		roundBytes:     roundBytes,
		cost:           cost,
		size:           st.size,
	}
	svc.streams = append(svc.streams, cm)
	if svc.cache != nil {
		svc.cache.admitFeeder(cm)
	}
	// Prime the first window immediately; it is one-off startup work,
	// not part of any round's guaranteed batch.
	svc.fetch(cm, 0, false)
	return cm, nil
}

// Reshape renegotiates an admitted stream's service rate in place: the
// per-round window is re-costed at frameBytes×frameHz against the
// per-disk round budget, with the stream keeping its buffers, its
// reservation identity and its position in the title throughout — no
// release/re-admit instant at which another admission could steal the
// slot. Shrinking always succeeds and frees the cost difference for
// other streams immediately; growing may refuse (ErrOverCommit) and
// then changes nothing. Windows already buffered play out under the
// geometry they were fetched with; the next fetch uses the new one.
func (svc *CMService) Reshape(cm *CMStream, frameBytes, frameHz int) error {
	if cm == nil || cm.released || cm.svc != svc {
		return fmt.Errorf("%w: reshape of a stream this service does not hold", ErrBadStream)
	}
	if frameBytes > cm.fullFrameBytes {
		return fmt.Errorf("%w: %s: reshaped tier %d exceeds stored frame %d",
			ErrBadStream, cm.path, frameBytes, cm.fullFrameBytes)
	}
	roundBytes, err := svc.streamRoundBytes(frameBytes, frameHz)
	if err != nil {
		return fmt.Errorf("%s: %w", cm.path, err)
	}
	cost := svc.CostPerRound(roundBytes)
	// The RAM tier serves full quality only: any reshape of a
	// cache-served stream demotes it to disk admission at the requested
	// tier. It holds no disk cost to diff against, so the whole cost
	// must fit.
	if d := cost - cm.cost; !svc.Fits(d) {
		svc.Stats.ReshapeRefused++
		if cm.cacheServed {
			return fmt.Errorf("%w: %s reshape off the RAM tier needs %v/round, %v of %v committed",
				ErrOverCommit, cm.path, cost, svc.committed, svc.budget)
		}
		return fmt.Errorf("%w: %s reshape needs %v/round more, %v of %v committed",
			ErrOverCommit, cm.path, d, svc.committed, svc.budget)
	}
	cm.frameBytes, cm.roundBytes = frameBytes, roundBytes
	svc.Stats.Reshaped++
	if cm.cacheServed {
		svc.demote(cm, cost)
		return nil
	}
	svc.committed += cost - cm.cost
	cm.cost = cost
	if svc.cache != nil {
		svc.cache.reshaped(cm)
	}
	return nil
}

// fetch issues one round window into buffer b. counted windows belong
// to the current round's guaranteed batch (overrun accounting).
//
// A window that crosses the title's end (possible only after a Reshape
// whose round no longer divides the title length) wraps: the tail and
// the head of the title are read into one buffer, so every window still
// holds exactly framesPerRound frames and playout keeps draining one
// window per round. The extra repositioning a split costs is absorbed
// by the utilization margin, like segment-boundary seeks.
func (svc *CMService) fetch(cm *CMStream, b int, counted bool) {
	buf := &cm.bufs[b]
	off := cm.fetchOff
	n := cm.roundBytes
	if svc.cache != nil && cm.frameBytes == cm.fullFrameBytes {
		if data, ok := svc.cache.window(cm.path, off, n); ok {
			// RAM tier hit: the window comes from another viewer's wake
			// with no disk I/O at all — for a cache-served follower that
			// is its whole service; a disk-backed stream just skips one
			// read (its budget stays charged: admission promised the
			// heads, the cache merely idles them). The buffer aliases the
			// shared wake: playout only ever reads it.
			cm.fetchOff = (off + n) % cm.size
			buf.frameBytes = cm.frameBytes
			buf.data = data
			buf.ready = true
			buf.fetching = false
			svc.Stats.CacheHits++
			svc.Stats.CacheBytesServed += n
			svc.Stats.BytesStreamed += n
			return
		}
		if cm.cacheServed {
			// The wake evaporated under this follower (leader closed,
			// interval stretched past the window, pressure evicted it):
			// take the demotion path to disk admission on the spot, or
			// stall this round and retry at the next.
			svc.Stats.CacheMisses++
			if !svc.demoteToDisk(cm) {
				svc.Stats.CacheStalls++
				return
			}
		}
	}
	buf.fetching = true
	buf.frameBytes = cm.frameBytes
	cm.fetchOff = (off + n) % cm.size
	if counted {
		svc.outstanding++
		svc.Stats.GuaranteedReads++
	}
	if off+n <= cm.size {
		svc.sv.Read(cm.path, off, int(n), func(data []byte, err error) {
			svc.fetched(cm, buf, off, counted, data, err)
		})
		return
	}
	tail := cm.size - off
	combined := make([]byte, n)
	parts := 2
	var firstErr error
	part := func(dst []byte) func([]byte, error) {
		return func(data []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("fileserver: wrapped window read failed: %w", err)
			}
			copy(dst, data)
			if parts--; parts == 0 {
				svc.fetched(cm, buf, off, counted, combined, firstErr)
			}
		}
	}
	svc.sv.Read(cm.path, off, int(tail), part(combined[:tail]))
	svc.sv.Read(cm.path, 0, int(n-tail), part(combined[tail:]))
}

// fetched completes one window fetch (possibly assembled from a wrapped
// pair of reads). off is the title offset the window was fetched from —
// the wake store files full-tier windows under it.
func (svc *CMService) fetched(cm *CMStream, buf *cmBuf, off int64, counted bool, data []byte, err error) {
	if counted {
		svc.outstanding--
	}
	if cm.released {
		return
	}
	buf.fetching = false
	if err != nil {
		svc.Stats.ReadErrors++
		return
	}
	buf.data = data
	buf.ready = true
	svc.Stats.BytesStreamed += int64(len(data))
	if svc.cache != nil {
		svc.cache.insert(cm, off, data)
	}
}

// round is the scheduler tick: detect overrun of the previous round,
// batch every admitted stream's next window in SCAN order, then fill
// the remaining slack with best-effort reads.
func (svc *CMService) round() {
	svc.Stats.Rounds++
	if svc.outstanding > 0 {
		svc.Stats.RoundOverruns++
	}
	batch := svc.batch[:0]
	var used sim.Duration
	for _, cm := range svc.streams {
		if !cm.started {
			if !cm.bufs[0].ready {
				continue // still priming
			}
			// Playout may begin this round: the primed window is one
			// full round deep, so consumption can never catch the heads.
			cm.started = true
			if cb := cm.onReady; cb != nil {
				cm.onReady = nil
				cb()
			}
		}
		for b := range cm.bufs {
			if !cm.bufs[b].ready && !cm.bufs[b].fetching {
				addr, _ := svc.sv.streamAddr(cm.path, cm.fetchOff)
				batch = append(batch, roundFetch{cm, b, addr})
				used += cm.cost
				break // at most one window per stream per round
			}
		}
	}
	slices.SortFunc(batch, func(x, y roundFetch) int {
		return cmp.Or(cmp.Compare(x.addr, y.addr), cmp.Compare(x.cm.id, y.cm.id))
	})
	for _, f := range batch {
		svc.fetch(f.cm, f.b, true)
	}
	clear(batch) // hold no released stream until the next round
	svc.batch = batch
	// Best-effort fills the slack up to the whole round, beyond the
	// admission budget; a request that would never fit alone goes out
	// when the round is otherwise empty rather than starving.
	for len(svc.bestEffort) > 0 {
		req := svc.bestEffort[0]
		c := svc.CostPerRound(int64(req.n))
		if used+c > svc.cfg.Round && used > 0 {
			break
		}
		used += c
		svc.bestEffort = svc.bestEffort[1:]
		svc.Stats.BestEffortServed++
		svc.sv.Read(req.path, req.off, req.n, req.done)
	}
}

// ReadBestEffort queues a read to be served from round slack — the
// class ordinary file traffic travels in on a serving array. No
// guarantee: it waits as many rounds as the guaranteed load requires.
func (svc *CMService) ReadBestEffort(path string, off int64, n int, done func([]byte, error)) {
	svc.bestEffort = append(svc.bestEffort, beReq{path: path, off: off, n: n, done: done})
}

// BestEffortQueued reports best-effort reads waiting for slack.
func (svc *CMService) BestEffortQueued() int { return len(svc.bestEffort) }

// Ready reports whether playout may begin (the first window is buffered
// and a round boundary has passed).
func (cm *CMStream) Ready() bool { return cm.started }

// OnReady registers a callback for the moment playout may begin; it
// fires immediately if the stream is already ready.
func (cm *CMStream) OnReady(fn func()) {
	if cm.started {
		fn()
		return
	}
	cm.onReady = fn
}

// Cost reports the per-disk round time this stream charges.
func (cm *CMStream) Cost() sim.Duration { return cm.cost }

// FrameBytes reports the bytes served per frame at the current tier.
func (cm *CMStream) FrameBytes() int { return cm.frameBytes }

// FullFrameBytes reports the stored per-frame size — the ceiling a
// Reshape may grow the served tier back to.
func (cm *CMStream) FullFrameBytes() int { return cm.fullFrameBytes }

// NextFrame returns the next frameBytes of the stream from the playout
// buffer. It reports false — and counts an underrun — when the buffer
// has no data, which admission control exists to prevent; playout then
// skips the frame and resumes when read-ahead catches up. The frame is
// read-only — its window may be shared with the RAM tier and with other
// streams — and is never overwritten, so it may be held (sent on the
// wire by reference) for as long as the caller likes.
func (cm *CMStream) NextFrame() ([]byte, bool) {
	if cm.released {
		return nil, false
	}
	buf := &cm.bufs[cm.cur]
	if !buf.ready {
		if cm.started {
			cm.Underruns++
			cm.svc.Stats.Underruns++
			if cm.svc.OnUnderrun != nil {
				cm.svc.OnUnderrun(cm)
			}
		}
		return nil, false
	}
	// Frames come in the size the window was fetched under, so a window
	// always holds a whole number of them whatever reshapes happened
	// since.
	fb := buf.frameBytes
	out := buf.data[cm.pos : cm.pos+fb]
	cm.pos += fb
	if cm.pos >= len(buf.data) {
		// Window drained: free it for next round's batch and flip to
		// the window fetched behind it.
		buf.ready = false
		buf.data = nil
		cm.cur ^= 1
		cm.pos = 0
	}
	return out, true
}

// Release tears the stream down and returns its disk-time reservation —
// the storage analogue of netsig.TearDown.
func (cm *CMStream) Release() {
	if cm.released {
		return
	}
	cm.released = true
	cm.svc.committed -= cm.cost
	cm.svc.Stats.Released++
	for i, s := range cm.svc.streams {
		if s == cm {
			cm.svc.streams = append(cm.svc.streams[:i], cm.svc.streams[i+1:]...)
			break
		}
	}
	// Cache bookkeeping last: a released leader's followers demote
	// against the budget the teardown just returned.
	if cm.svc.cache != nil {
		cm.svc.cache.release(cm)
	}
}

// streamAddr maps a file offset of a path to its array address (0 when
// unknown — unwritten holes sort first, which is harmless).
func (sv *Server) streamAddr(path string, off int64) (int64, bool) {
	st, ok := sv.files[path]
	if !ok || st.pn == 0 {
		return 0, false
	}
	return sv.fs.AddrOf(st.pn, off)
}
