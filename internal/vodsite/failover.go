package vodsite

// FailReport is the outcome of one node failure.
type FailReport struct {
	Node      int
	Streams   int // streams the node was serving at failure
	Recovered int // re-admitted on surviving replicas
	Dropped   int // no surviving replica had (link ∧ disk) room
}

// FailNode tears a storage node down: its round scheduler stops, its
// circuits are released (returning every admitted rate to the viewers'
// downlinks and the node's uplink), in-flight copies touching it are
// aborted, and every stream it was serving is re-admitted on surviving
// replicas in least-committed order. Streams with no surviving replica
// — or none with room — are dropped; the caller learns each outcome via
// OnReadmit/OnDrop and the returned counts.
func (c *Controller) FailNode(n *Node) FailReport {
	rep := FailReport{Node: n.ID}
	if n.failed {
		return rep
	}
	n.failed = true
	if n.SS.CM != nil {
		n.SS.CM.Stop()
	}
	// Abort copies reading from or writing to the dead node.
	for _, j := range append([]*copyJob(nil), c.copies...) {
		if j.Src == n || j.Dst == n {
			j.Abort()
		}
	}
	// The node is gone from every replica set: admission must never
	// offer it again.
	for _, t := range c.ranked {
		for i, r := range t.replicas {
			if r == n {
				t.replicas = append(t.replicas[:i], t.replicas[i+1:]...)
				break
			}
		}
	}
	moved := n.streams
	n.streams = nil
	rep.Streams = len(moved)
	for _, st := range moved {
		// Release what the dead node held: closing the session frees the
		// viewer downlink and node uplink; the disk reservation is
		// bookkeeping on a stopped scheduler.
		_ = st.sess.Close()
		st.sess, st.node = nil, nil

		nn, sess, _, err := c.tryReplicas(st.Title, st.viewerPort)
		if err != nil {
			st.released = true
			rep.Dropped++
			c.Stats.FailoverDropped++
			if cb := c.OnDrop; cb != nil {
				cb(st)
			}
			continue
		}
		st.node, st.sess = nn, sess
		nn.streams = append(nn.streams, st)
		nn.Admissions++
		rep.Recovered++
		c.Stats.FailoverRecovered++
		if cb := c.OnReadmit; cb != nil {
			cb(st)
		}
	}
	c.retryRestores()
	return rep
}
