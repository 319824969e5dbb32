package vodsite

// Reactive replication: when a title's refusals cross the threshold,
// copy it onto the least-loaded node that doesn't hold it. The copy is
// background traffic in the strictest sense — every read goes through
// the source's ReadBestEffort queue, so it is served purely from round
// slack and an admitted stream's guaranteed rounds are untouched. The
// replica joins the catalog only once the copy is durable on the
// target's array.

// maybeReplicate schedules a background copy if the title's refusal
// count has crossed the threshold and a source/target pair exists.
func (c *Controller) maybeReplicate(t *Title) {
	if c.cfg.ReplicationDisabled || t.copying {
		return
	}
	if t.pendingRefusals < c.cfg.RefusalThreshold {
		return
	}
	limit := len(c.nodes)
	if c.cfg.MaxReplicas > 0 && c.cfg.MaxReplicas < limit {
		limit = c.cfg.MaxReplicas
	}
	alive := 0
	for _, n := range t.replicas {
		if !n.failed {
			alive++
		}
	}
	if alive >= limit {
		return
	}
	target := c.replicationTarget(t)
	source := c.copySource(t)
	if target == nil || source == nil || source.SS.CM == nil {
		return
	}
	t.pendingRefusals = 0
	t.copying = true
	c.Stats.ReplicasTriggered++
	j := &copyJob{c: c, t: t}
	j.TitleCopy = TitleCopy{Src: source, Dst: target, Name: t.Name, Bytes: t.Bytes,
		Chunk: c.cfg.CopyChunk, Done: j.done, Aborted: j.aborted}
	c.copies = append(c.copies, j)
	if c.cfg.DegradeBeforeReplicate {
		j.degradeViewers()
	}
	j.Start()
}

// degradeViewers drops the hot title's current viewers on the copy's
// source node one quality tier for the replication window: their
// shrunken rounds leave more slack for the best-effort copy reads and
// more disk budget for new viewers while the copy catches up. They are
// restored when the replica joins the catalog or the copy aborts.
func (j *copyJob) degradeViewers() {
	for _, st := range j.Src.streams {
		if st.Title != j.t || st.sess == nil {
			continue
		}
		if st.sess.Degraded() {
			continue // already below full quality; leave its tier alone
		}
		if st.sess.Degrade(j.c.cfg.DegradeFactor) == nil && st.sess.Degraded() {
			j.degraded = append(j.degraded, st)
			j.c.Stats.DegradedForCopy++
		}
	}
}

// restoreViewers climbs the degraded viewers back toward full quality
// once the replication window closes. A restore the budget refuses
// right now (new viewers took the freed room during the window) parks
// on the controller's restore queue and is retried every time a stream
// releases — the site's own reclaim only covers Adaptive-class
// sessions, and Guaranteed viewers must not stay degraded for life.
func (j *copyJob) restoreViewers() {
	for _, st := range j.degraded {
		if !st.restorable() {
			continue
		}
		if st.sess.Restore() == nil {
			j.c.Stats.RestoredAfterCopy++
		} else {
			j.c.restorePending = append(j.c.restorePending, st)
		}
	}
	j.degraded = nil
}

// restorable reports whether a copy-window viewer still has quality to
// get back. False once it is gone, already back at full quality (e.g.
// failover re-admitted it fresh), or dying with its node — FailNode
// closes and re-admits those moments after aborting the copy, so there
// is nothing to restore or count.
func (st *Stream) restorable() bool {
	return !st.Released() && st.sess != nil && st.sess.Degraded() &&
		st.node != nil && !st.node.Failed()
}

// retryRestores re-attempts parked copy-window restores; called after
// any stream teardown returns budget.
func (c *Controller) retryRestores() {
	keep := c.restorePending[:0]
	for _, st := range c.restorePending {
		switch {
		case !st.restorable():
		case st.sess.Restore() == nil:
			c.Stats.RestoredAfterCopy++
		default:
			keep = append(keep, st)
		}
	}
	c.restorePending = keep
}

// replicationTarget picks the copy destination: the alive non-holder
// with the lowest *runtime* commitment (disk/uplink bottleneck) — not
// the static placement weight, which says nothing about the load the
// site has actually admitted since Place. Placement weight, then node
// ID, break ties deterministically.
func (c *Controller) replicationTarget(t *Title) *Node {
	var best *Node
	var bestScore float64
	for _, n := range c.nodes {
		if n.failed || t.holds(n) {
			continue
		}
		s := c.nodeScore(n)
		if best == nil || s < bestScore ||
			(s == bestScore && n.weight < best.weight) {
			best, bestScore = n, s
		}
	}
	return best
}

// copySource picks the least-committed alive replica to read from —
// the node with the most round slack for the best-effort copy reads.
func (c *Controller) copySource(t *Title) *Node {
	var best *Node
	for _, n := range t.replicas {
		if n.failed {
			continue
		}
		if best == nil || c.nodeScore(n) < c.nodeScore(best) {
			best = n
		}
	}
	return best
}

// Copying reports background copies in flight.
func (c *Controller) Copying() int { return len(c.copies) }

// TitleCopy is one chunked background copy of a title's bytes from one
// node's array to another's: create sparse on Dst, read Chunk bytes at
// a time off Src through ReadBestEffort (round slack only — guaranteed
// rounds are untouched), write them onto Dst, sync, then Done. The
// nodes may live on different partitions (or, for a metro copy,
// different sites): every read and sync completion is handed to the
// barrier with Defer before it touches the other node or the owner's
// bookkeeping; serial kernels run it inline. Activation and stats stay
// with the owner, in the two callbacks.
type TitleCopy struct {
	// Src is read from; Dst is written to.
	Src, Dst *Node
	// Name and Bytes identify the title and its length.
	Name  string
	Bytes int64
	// Chunk is the bytes per best-effort read.
	Chunk int
	// Done fires once the copy is durable on Dst's array: only a synced
	// replica may join a catalog (a node that crashes between copy and
	// sync must not serve the title from volatile buffers).
	Done func()
	// Aborted fires once if the copy is abandoned (I/O error, Abort).
	Aborted func()

	off     int64
	created bool
	aborted bool
}

// Start begins the copy.
func (cp *TitleCopy) Start() {
	if err := cp.Dst.SS.Server.Create(cp.Name, true); err != nil {
		cp.Abort()
		return
	}
	cp.created = true
	cp.step()
}

func (cp *TitleCopy) step() {
	if cp.aborted {
		return
	}
	if cp.off >= cp.Bytes {
		cp.Dst.SS.Server.FS().Sync(func(err error) { cp.deferred(cp.Dst, err, cp.Done) })
		return
	}
	off := cp.off
	n := min(int64(cp.Chunk), cp.Bytes-off)
	cp.Src.SS.CM.ReadBestEffort(cp.Name, off, int(n), func(data []byte, err error) {
		cp.deferred(cp.Src, err, func() {
			if err := cp.Dst.SS.Server.Write(cp.Name, off, data); err != nil {
				cp.Abort()
				return
			}
			cp.off = off + int64(len(data))
			cp.step()
		})
	})
}

// deferred continues the copy from an I/O completion that fired on
// node on's partition: at the barrier, unless the copy was aborted
// meanwhile or the I/O failed.
func (cp *TitleCopy) deferred(on *Node, err error, next func()) {
	on.SS.Net.Sim.Defer(func() {
		switch {
		case cp.aborted:
		case err != nil:
			cp.Abort()
		default:
			next()
		}
	})
}

// Abort abandons the copy and removes the partial file so a later
// attempt can start clean. Idempotent.
func (cp *TitleCopy) Abort() {
	if cp.aborted {
		return
	}
	cp.aborted = true
	cp.Aborted()
	if cp.created && !cp.Dst.failed {
		_ = cp.Dst.SS.Server.Delete(cp.Name)
	}
}

// copyJob is one reactive replication: a TitleCopy plus the catalog
// activation and the copy-window viewer bookkeeping.
type copyJob struct {
	TitleCopy
	c *Controller
	t *Title

	// degraded holds the viewer streams tier-dropped for this copy's
	// window (DegradeBeforeReplicate); restored when the window closes.
	degraded []*Stream
}

func (j *copyJob) done() {
	j.c.removeJob(j)
	j.t.copying = false
	j.t.replicas = append(j.t.replicas, j.Dst)
	j.c.Stats.ReplicasCompleted++
	j.restoreViewers()
	if cb := j.c.OnReplica; cb != nil {
		cb(j.t, j.Dst)
	}
}

func (j *copyJob) aborted() {
	j.c.removeJob(j)
	j.t.copying = false
	j.c.Stats.ReplicasAborted++
	j.restoreViewers()
}

func (c *Controller) removeJob(j *copyJob) {
	for i, x := range c.copies {
		if x == j {
			c.copies = append(c.copies[:i], c.copies[i+1:]...)
			return
		}
	}
}
