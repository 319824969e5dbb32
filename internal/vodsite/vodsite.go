// Package vodsite is the site controller for a multi-server VoD
// installation: the layer the paper's distributed file-service model
// implies once "the" storage server becomes many. Pegasus (§2.2, Fig 4)
// hangs multiple multimedia storage servers off the ATM fabric and
// leaves placement and selection to system software; this package is
// that software.
//
//   - The controller owns a *title catalog*: title → replica set across
//     N storage nodes, where each node is a PR-2 serving stack (a
//     fileserver.CMService over a striped array) plus its netsig uplink
//     budget into the switch.
//   - *Initial placement* is driven by a Zipf popularity model: titles
//     are placed hottest-first onto the node with the least expected
//     load, so the catalog's popularity mass is spread across arrays
//     before the first viewer arrives.
//   - *Admission* tries a title's replicas in least-committed order and
//     charges the usual conjunction — the viewer's downlink, the node's
//     uplink, the node's disk-time budget and (on nodes with an
//     admission-controlled CPU) the node's processor must all have
//     room. A stream is refused only when every replica's
//     (link ∧ disk ∧ CPU) admission fails; the guarantee of any
//     admitted stream is exactly the single-node guarantee of PR 2,
//     just placed better.
//   - *Reactive replication*: when a title's refusals cross a
//     threshold, the controller schedules a background copy onto the
//     least-loaded node. The copy reads through ReadBestEffort — round
//     slack only, guaranteed rounds untouched — and the new replica
//     joins the catalog when the copy is durable.
//   - *Node failure*: FailNode releases the dead node's circuits and
//     re-admits its streams on surviving replicas, counting recovered
//     vs. dropped — the failure mode a distributed site exists to
//     absorb.
package vodsite

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fileserver"
)

// ErrNoReplica reports a stream refused because every replica's
// link∧disk admission failed — the site-level refusal.
var ErrNoReplica = errors.New("vodsite: no replica can carry the stream")

// Config parameterises the site controller.
type Config struct {
	// PeakRate is the admitted peak bits/s per stream (required).
	PeakRate int64

	// Class is the QoS class viewer sessions are opened with (default
	// core.Guaranteed). With core.Adaptive, an over-subscribed replica
	// degrades its Adaptive viewers to make room instead of refusing
	// (see core.OpenSession) — note that Probe then under-reports,
	// since it describes only full-quality admission.
	Class core.QoSClass

	// DegradeBeforeReplicate drops the quality tier of a hot title's
	// current viewers on the copy's source node while the background
	// replication is in flight, restoring them when the replica joins
	// the catalog (or the copy aborts). The degraded rounds leave more
	// slack for the best-effort copy reads *and* more disk budget for
	// new viewers — the paper's negotiate-down policy applied to the
	// replication window.
	DegradeBeforeReplicate bool

	// DegradeFactor is the tier drop DegradeBeforeReplicate applies
	// (default 0.5), floor-bounded per session.
	DegradeFactor float64

	// ZipfS is the popularity exponent of the catalog's Zipf model
	// (default 1.3): weight(rank r) ∝ 1/r^ZipfS, rank 1 hottest.
	ZipfS float64

	// BaseReplicas is the initial replica count per title (default 1).
	// Placing hot catalogs at 2 keeps every title available across one
	// node failure without waiting for reactive replication.
	BaseReplicas int

	// RefusalThreshold is the site-level refusal count on one title that
	// triggers a reactive replication (default 3).
	RefusalThreshold int

	// MaxReplicas caps a title's replica set (default: every node).
	MaxReplicas int

	// ReplicationDisabled turns reactive replication off — the ablation
	// that shows why a hot title must not stay on one array.
	ReplicationDisabled bool

	// CopyChunk is the bytes per best-effort read of a replication copy
	// (default 256 KiB).
	CopyChunk int
}

func (c *Config) setDefaults() {
	if c.ZipfS == 0 {
		c.ZipfS = 1.3
	}
	if c.DegradeFactor == 0 {
		c.DegradeFactor = 0.5
	}
	if c.BaseReplicas == 0 {
		c.BaseReplicas = 1
	}
	if c.RefusalThreshold == 0 {
		c.RefusalThreshold = 3
	}
	if c.CopyChunk == 0 {
		c.CopyChunk = 256 << 10
	}
}

// Stats counts site-level activity.
type Stats struct {
	Admitted int64 // streams admitted (some replica said yes)
	Refused  int64 // streams refused by every replica

	ReplicasTriggered int64 // background copies scheduled
	ReplicasCompleted int64 // replicas that joined the catalog
	ReplicasAborted   int64 // copies abandoned (node failure, I/O error)

	FailoverRecovered int64 // streams re-admitted on surviving replicas
	FailoverDropped   int64 // streams lost with their node

	DegradedForCopy   int64 // viewer sessions tier-dropped for a replication window
	RestoredAfterCopy int64 // sessions restored when their copy finished or aborted
}

// Node is one storage node under the controller: a PR-2 serving stack
// plus its uplink budget.
type Node struct {
	ID int
	SS *core.StorageServer

	// Admissions counts streams admitted on this node, cumulative,
	// including failover re-admissions — the per-node scoreboard column.
	Admissions int64

	failed  bool
	weight  float64 // popularity mass placed here (placement balance)
	streams []*Stream
}

// Failed reports whether the node has been torn down.
func (n *Node) Failed() bool { return n.failed }

// Streams reports the node's currently served streams.
func (n *Node) Streams() int { return len(n.streams) }

func (n *Node) dropStream(st *Stream) {
	for i, s := range n.streams {
		if s == st {
			n.streams = append(n.streams[:i], n.streams[i+1:]...)
			return
		}
	}
}

// Title is one catalog entry: the stored stream and its replica set.
type Title struct {
	Name                string
	Rank                int // 1-based popularity rank, 1 = hottest
	Bytes               int64
	FrameBytes, FrameHz int

	// Refusals counts site-level refusals of this title, cumulative.
	Refusals int64

	replicas        []*Node
	pendingRefusals int  // toward the next replication trigger
	copying         bool // a background copy is in flight
}

// Replicas reports the nodes currently holding the title.
func (t *Title) Replicas() []*Node { return append([]*Node(nil), t.replicas...) }

// Stream is one admitted site stream: the chosen replica and the
// core.Session owning its circuit and disk reservation. Tag is for the
// caller (the load generator hangs its per-request state there); the
// controller never touches it.
type Stream struct {
	Title *Title
	Tag   any

	ctrl       *Controller
	node       *Node
	sess       *core.Session
	viewerPort int
	released   bool
}

// Node reports the replica currently serving the stream.
func (st *Stream) Node() *Node { return st.node }

// Session exposes the stream's end-to-end session (nil after release).
func (st *Stream) Session() *core.Session { return st.sess }

// VCI reports the stream's current circuit number (0 when released).
func (st *Stream) VCI() atm.VCI {
	if st.sess == nil {
		return 0
	}
	return st.sess.VCI()
}

// CM exposes the stream's disk reservation (playout pulls frames from
// it); nil after release.
func (st *Stream) CM() *fileserver.CMStream {
	if st.sess == nil {
		return nil
	}
	return st.sess.CM()
}

// Released reports whether the stream is down (released or dropped).
func (st *Stream) Released() bool { return st.released }

// Release tears the stream down end to end: circuit and disk
// reservation both return to their budgets.
func (st *Stream) Release() {
	if st.released {
		return
	}
	st.released = true
	st.teardown()
}

func (st *Stream) teardown() {
	if st.sess != nil {
		_ = st.sess.Close()
		st.sess = nil
	}
	if st.node != nil {
		st.node.dropStream(st)
		st.node = nil
	}
	st.ctrl.retryRestores()
}

// Controller is the site controller: catalog, placement, admission,
// replication and failover over N storage nodes.
type Controller struct {
	site   *core.Site
	cfg    Config
	nodes  []*Node
	titles map[string]*Title
	ranked []*Title // rank order, hottest first
	copies []*copyJob

	// restorePending holds copy-window viewers whose restore the budget
	// refused; retried after every stream teardown.
	restorePending []*Stream

	// probeStore and probes are probeReplicas' scratch: the reports and
	// their ranking, valid until the next call.
	probeStore []replicaProbe
	probes     []*replicaProbe

	// OnReplica fires when a background copy completes and the replica
	// joins the catalog — the load generator retries refused requests.
	OnReplica func(t *Title, n *Node)
	// OnReadmit fires for each stream moved to a surviving replica by
	// FailNode; the caller rewires its sink to st.VCI() and restarts
	// playout from st.CM().
	OnReadmit func(st *Stream)
	// OnDrop fires for each stream FailNode could not re-admit.
	OnDrop func(st *Stream)

	Stats Stats
}

// New builds a controller over the site. It turns on netsig uplink
// admission: from here on a node's link into the switch is a budget,
// not a hope.
func New(site *core.Site, cfg Config) *Controller {
	cfg.setDefaults()
	if cfg.PeakRate <= 0 {
		panic("vodsite: Config.PeakRate is required")
	}
	site.Signalling.EnableUplinkAdmission()
	return &Controller{
		site:   site,
		cfg:    cfg,
		titles: make(map[string]*Title),
	}
}

// Site exposes the underlying site.
func (c *Controller) Site() *core.Site { return c.site }

// Nodes exposes the storage nodes in ID order.
func (c *Controller) Nodes() []*Node { return c.nodes }

// AddNode registers a storage node with the controller.
func (c *Controller) AddNode(ss *core.StorageServer) *Node {
	n := &Node{ID: len(c.nodes), SS: ss}
	c.nodes = append(c.nodes, n)
	return n
}

// AddTitle registers a catalog entry. Call in popularity order, hottest
// first: the insertion order is the Zipf rank placement works from.
func (c *Controller) AddTitle(name string, bytes int64, frameBytes, frameHz int) *Title {
	t := &Title{
		Name: name, Rank: len(c.ranked) + 1, Bytes: bytes,
		FrameBytes: frameBytes, FrameHz: frameHz,
	}
	c.titles[name] = t
	c.ranked = append(c.ranked, t)
	return t
}

// Lookup returns a catalog entry (nil if unknown).
func (c *Controller) Lookup(name string) *Title { return c.titles[name] }

// Titles exposes the catalog in rank order.
func (c *Controller) Titles() []*Title { return c.ranked }

// Place performs initial placement: titles hottest-first, each replica
// onto the alive node carrying the least popularity mass, and writes
// the title's bytes there through the ordinary service path. The caller
// drains the simulator afterwards (the writes are real disk I/O) and
// then calls Start.
func (c *Controller) Place() error {
	if len(c.nodes) == 0 {
		return errors.New("vodsite: no nodes to place on")
	}
	w := Weights(len(c.ranked), c.cfg.ZipfS)
	for i, t := range c.ranked {
		r := min(c.cfg.BaseReplicas, len(c.nodes))
		data := titleData(t) // generated once, read by every replica's write
		for j := 0; j < r; j++ {
			n := c.placementTarget(t)
			if n == nil {
				break
			}
			t.replicas = append(t.replicas, n)
			n.weight += w[i] / float64(r)
			if err := writeTitle(n, t, data); err != nil {
				return fmt.Errorf("vodsite: place %s on node %d: %w", t.Name, n.ID, err)
			}
		}
	}
	for _, n := range c.nodes {
		n.SS.Server.FS().Sync(func(err error) {
			if err != nil {
				panic(fmt.Sprintf("vodsite: placement sync: %v", err))
			}
		})
	}
	return nil
}

// placementTarget picks the least-loaded alive node not yet holding t.
func (c *Controller) placementTarget(t *Title) *Node {
	var best *Node
	for _, n := range c.nodes {
		if n.failed || t.holds(n) {
			continue
		}
		if best == nil || n.weight < best.weight {
			best = n
		}
	}
	return best
}

func (t *Title) holds(n *Node) bool {
	for _, r := range t.replicas {
		if r == n {
			return true
		}
	}
	return false
}

// writeTitle stores a title's bytes on a node, 64 KiB a write.
func writeTitle(n *Node, t *Title, data []byte) error {
	if err := n.SS.Server.Create(t.Name, true); err != nil {
		return err
	}
	for off := 0; off < len(data); off += 64 << 10 {
		if err := n.SS.Server.Write(t.Name, int64(off), data[off:min(off+64<<10, len(data))]); err != nil {
			return err
		}
	}
	return nil
}

// titleData generates a title's bytes: the deterministic per-rank pattern
// byte i = (131 i + 37 rank) mod 251, so replica copies are
// byte-comparable in tests.
func titleData(t *Title) []byte {
	data := make([]byte, t.Bytes)
	v := t.Rank * 37 % 251
	for i := range data {
		data[i] = byte(v)
		if v += 131; v >= 251 {
			v -= 251
		}
	}
	return data
}

// Start enables the continuous-media serving service on every node.
// Call after placement has been drained to the arrays.
func (c *Controller) Start(cfg fileserver.CMConfig) {
	for _, n := range c.nodes {
		n.SS.EnableCM(cfg)
	}
}

// specFor builds the session spec admitting one viewer of t, at the
// ports in viewer, from replica n. A nil viewer leaves OutPorts empty —
// the node-local probe shape (core.Site.Probe then skips the link leg),
// used for load scoring where no particular viewer is meant.
func (c *Controller) specFor(t *Title, n *Node, viewer []int, class core.QoSClass) core.SessionSpec {
	sp := core.SessionSpec{
		Class:    class,
		InPort:   n.SS.Net.Port,
		PeakRate: c.cfg.PeakRate,
		CPU:      n.SS.CPU,
		OutPorts: viewer,
	}
	if t != nil {
		sp.CM = n.SS.CM
		sp.Title = t.Name
		sp.FrameBytes = t.FrameBytes
		sp.FrameHz = t.FrameHz
	}
	return sp
}

// nodeScore is a node's bottleneck commitment — 1 minus the tightest
// headroom core.Site.Probe reports across the node-local legs (uplink,
// disk, CPU). Replication targeting orders by it, so "least committed"
// means least committed on whichever resource the node is closest to
// exhausting.
func (c *Controller) nodeScore(n *Node) float64 {
	r := c.site.Probe(c.specFor(nil, n, nil, c.cfg.Class))
	_, h := r.Bottleneck()
	return 1 - h
}

// replicaProbe pairs a candidate replica with its admission report for
// one viewer and the two figures it is ranked by, read off the report
// once.
type replicaProbe struct {
	n      *Node
	cached bool    // the report admits from the RAM tier
	score  float64 // bottleneck commitment, as nodeScore
	r      core.AdmissionReport
}

// probeReplicas probes a title's alive replicas for one viewer and
// orders them for admission: replicas that would serve the stream from
// their RAM tier come first — the deliberate co-scheduling that lands
// every viewer of a hot title on the node already holding its wake,
// maximising interval overlap — then least bottleneck commitment, ties
// by node ID. A node without a started serving service cannot hold the
// disk half of the guarantee and is not a candidate. The result is the
// controller's scratch: it holds until the next call.
func (c *Controller) probeReplicas(t *Title, viewer []int) []*replicaProbe {
	if len(c.probeStore) < len(t.replicas) {
		c.probeStore = make([]replicaProbe, len(t.replicas))
	}
	out := c.probes[:0]
	for _, n := range t.replicas {
		if n.failed || n.SS.CM == nil {
			continue
		}
		p := &c.probeStore[len(out)]
		p.n, p.r = n, c.site.Probe(c.specFor(t, n, viewer, c.cfg.Class))
		_, h := p.r.Bottleneck()
		p.cached, p.score = p.r.OK && p.r.CacheServed, 1-h
		out = append(out, p)
	}
	c.probes = out
	slices.SortStableFunc(out, func(a, b *replicaProbe) int {
		if a.cached != b.cached {
			if a.cached {
				return -1
			}
			return 1
		}
		return cmp.Or(cmp.Compare(a.score, b.score), cmp.Compare(a.n.ID, b.n.ID))
	})
	return out
}

// Probe reports the title's best replica's admission verdict for one
// viewer, per-leg: the first replica (in the same preference order
// Admit uses) whose conjunction admits, else the preferred replica's
// report so FirstRefusal names the constraint that binds even on the
// best path. An unknown title or an empty replica set probes as a
// plain refusal. For Guaranteed controllers the site-level invariant
// is Admit succeeds ⇔ Probe(...).OK.
func (c *Controller) Probe(title string, viewerPort int) core.AdmissionReport {
	t := c.titles[title]
	if t == nil {
		return core.AdmissionReport{}
	}
	probes := c.probeReplicas(t, []int{viewerPort})
	for _, p := range probes {
		if p.r.OK {
			return p.r
		}
	}
	if len(probes) == 0 {
		return core.AdmissionReport{}
	}
	return probes[0].r
}

// tryReplicas attempts end-to-end session admission on each candidate
// replica in probe-preference order; it holds nothing on total
// failure, and returns the probes so the caller can read the refusing
// legs.
//
// Two passes when the class is Adaptive: first only replicas whose
// report admits at full quality — a replica that can serve at full
// quality (its RAM tier included) must win before any replica degrades
// its viewers to make room — then, if none had room, each candidate in
// turn with the degrade-instead-of-refuse machinery live. Guaranteed
// admissions are never pre-filtered on the report: a refused attempt
// must reach the refusing leg's own admission (and its refusal
// counters), which is also what keeps Probe and Admit honest against
// each other.
func (c *Controller) tryReplicas(t *Title, viewerPort int) (*Node, *core.Session, []*replicaProbe, error) {
	viewer := []int{viewerPort} // one slice for every probe and the session
	probes := c.probeReplicas(t, viewer)
	adaptive := c.cfg.Class == core.Adaptive
	n, sess, err := c.openOn(t, viewer, probes, adaptive)
	if sess == nil && adaptive && !catalogBug(err) {
		n, sess, err = c.openOn(t, viewer, probes, false)
	}
	switch {
	case sess != nil || catalogBug(err):
		return n, sess, probes, err
	case err == nil:
		err = errors.New("no alive replica")
	}
	return nil, nil, probes, fmt.Errorf("%w: %s: %v", ErrNoReplica, t.Name, err)
}

// openOn opens a session on the first candidate that admits — only
// candidates with full-quality room when fullOnly — and reports the
// last refusal otherwise. A replica that cannot serve the title at all
// is a catalog bug, not an over-subscription: it ends the attempt and
// surfaces as is.
func (c *Controller) openOn(t *Title, viewer []int, probes []*replicaProbe, fullOnly bool) (*Node, *core.Session, error) {
	var lastErr error
	for _, p := range probes {
		if fullOnly && !p.r.OK {
			continue
		}
		sess, err := c.site.OpenSession(c.specFor(t, p.n, viewer, c.cfg.Class))
		if err == nil {
			return p.n, sess, nil
		}
		if lastErr = err; catalogBug(err) {
			break
		}
	}
	return nil, nil, lastErr
}

func catalogBug(err error) bool {
	return errors.Is(err, fileserver.ErrBadStream) || errors.Is(err, fileserver.ErrBadRound)
}

// Admit admits one stream of a title to a viewer's port, trying
// replicas in least-committed order. A refusal means every replica's
// (link ∧ disk) admission failed; refusals feed the reactive
// replication trigger.
func (c *Controller) Admit(title string, viewerPort int) (*Stream, error) {
	t := c.titles[title]
	if t == nil {
		return nil, fmt.Errorf("vodsite: unknown title %q", title)
	}
	n, sess, probes, err := c.tryReplicas(t, viewerPort)
	if err != nil {
		if errors.Is(err, ErrNoReplica) {
			c.Stats.Refused++
			t.Refusals++
			// Only replica-side refusals feed the replication trigger: a
			// viewer whose own downlink is full would be refused however
			// many replicas exist, and copying cannot help. The reports
			// already say which it was — the link leg covers exactly the
			// viewer's port.
			if c.downlinkOK(viewerPort, probes) {
				t.pendingRefusals++
				c.maybeReplicate(t)
			}
		}
		return nil, err
	}
	st := &Stream{Title: t, ctrl: c, node: n, sess: sess, viewerPort: viewerPort}
	n.streams = append(n.streams, st)
	n.Admissions++
	c.Stats.Admitted++
	return st, nil
}

// downlinkOK reports whether the viewer's downlink alone could carry
// one more stream, read off the admission reports already in hand (the
// link leg covers exactly the viewer's port, so any replica's report
// answers); with no live replica probed, a link-only site probe asks
// about the port directly.
func (c *Controller) downlinkOK(viewerPort int, probes []*replicaProbe) bool {
	if len(probes) > 0 {
		return probes[0].r.Leg(core.LegLink).OK
	}
	r := c.site.Probe(core.SessionSpec{OutPorts: []int{viewerPort}, PeakRate: c.cfg.PeakRate})
	return r.Leg(core.LegLink).OK
}
