package vodsite

// Catalog snapshot surface: one accessor that answers "which nodes
// hold which titles right now" so the metro layer and tests stop
// reaching into placement internals.

// Catalog returns a point-in-time snapshot of the title catalog:
// title name → the nodes currently holding a replica, in the order
// the replicas joined (placement first, background copies after).
// Both the map and the slices are copies — mutating them does not
// touch the controller.
func (c *Controller) Catalog() map[string][]*Node {
	out := make(map[string][]*Node, len(c.titles))
	for name, t := range c.titles {
		out[name] = append([]*Node(nil), t.replicas...)
	}
	return out
}

// AdoptReplica registers n as a live replica of t whose bytes the
// caller has already made durable on n's array — the activation step
// of a cross-site (metro) bulk copy, which moves bytes along the same
// best-effort slack path as reactive replication but lands outside
// this controller's copy bookkeeping. No-op when n already holds the
// title or has failed.
func (c *Controller) AdoptReplica(t *Title, n *Node) {
	if t == nil || n == nil || n.failed || t.holds(n) {
		return
	}
	t.replicas = append(t.replicas, n)
}
