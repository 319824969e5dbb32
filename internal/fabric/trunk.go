package fabric

import (
	"repro/internal/atm"
	"repro/internal/sim"
)

// Trunk is one edge switch's uplink into a core switch: a pair of
// links (edge→core and core→edge) plus one admission Budget per
// direction. It is the unit of the two-tier metro topology — every
// inter-site path costs edge→core→edge, and the trunk budgets are the
// extra admission leg a cross-site flow must pass.
type Trunk struct {
	// Up carries cells from the edge switch into the core.
	Up *Link
	// Down carries cells from the core back to the edge.
	Down *Link
	// EdgePort is the edge switch port the trunk occupies.
	EdgePort int
	// CorePort is the core switch port the trunk occupies.
	CorePort int

	// UpBudget and DownBudget are the per-direction bit-rate admission
	// budgets. A flow crossing the trunk is handed the direction it
	// crosses (core.SessionSpec.TrunkUp/TrunkDown) and commits, reshapes
	// and releases it with its other legs.
	UpBudget, DownBudget Budget
}

// Budget is one trunk direction's bit-rate admission budget. The
// bookkeeping is deliberately error-free (Commit returns false when
// over-committed); the holder wraps a typed refusal itself
// (core.ErrTrunk).
type Budget struct{ capacity, committed int64 }

// Capacity is the budget's size in bits/s.
func (b *Budget) Capacity() int64 { return b.capacity }

// Committed is the bandwidth currently reserved against the budget.
func (b *Budget) Committed() int64 { return b.committed }

// Can reports whether rate more bits/s fit.
func (b *Budget) Can(rate int64) bool { return b.committed+rate <= b.capacity }

// Commit reserves rate more bits/s; false (holding nothing) when over
// budget.
func (b *Budget) Commit(rate int64) bool {
	if !b.Can(rate) {
		return false
	}
	b.committed += rate
	return true
}

// Release returns rate bits/s to the budget.
func (b *Budget) Release(rate int64) {
	b.committed -= rate
	if b.committed < 0 {
		panic("fabric: trunk budget release underflow")
	}
}

// Headroom is the free fraction of the budget in [0, 1].
func (b *Budget) Headroom() float64 {
	if b.capacity <= 0 || b.committed >= b.capacity {
		return 0
	}
	return float64(b.capacity-b.committed) / float64(b.capacity)
}

// JoinTier wires an edge switch into a core switch over a new trunk:
// the up link forwards the edge's trunk-port output into the core's
// in-port, the down link forwards the core's out-port back into the
// edge's trunk in-port. Both links (and the core in-port binding) run
// on owner — the edge site's event kernel — so the only
// cross-partition hop in a sharded metro is the core switch's output
// forwarding, whose latency (core fabric delay + trunk cell time +
// prop) is therefore the cluster lookahead bound.
func JoinTier(edge *Switch, edgePort int, core *Switch, corePort int, owner *sim.Sim, rate int64, prop sim.Duration) *Trunk {
	t := &Trunk{EdgePort: edgePort, CorePort: corePort,
		UpBudget: Budget{capacity: rate}, DownBudget: Budget{capacity: rate}}
	t.Up = NewLink(owner, rate, prop, 0, core.BindIn(corePort, owner))
	edge.AttachOutput(edgePort, t.Up)
	t.Down = NewLink(owner, rate, prop, 0, edge.BindIn(edgePort, owner))
	core.AttachOutput(corePort, t.Down)
	return t
}

// TierLookahead is the core→edge forwarding latency of a trunk built
// with the given geometry: the minimum timestamp distance of any
// cross-partition send in a metro cluster, and therefore the
// conservative lookahead bound to shard it under.
func TierLookahead(coreFabricDelay sim.Duration, rate int64, prop sim.Duration) sim.Duration {
	ct := sim.Duration(int64(atm.CellSize*8) * int64(sim.Second) / rate)
	return coreFabricDelay + ct + prop
}

// Capacity is the trunk's per-direction admission budget in bits/s.
func (t *Trunk) Capacity() int64 { return t.UpBudget.capacity }

// CommittedUp is the edge→core bandwidth currently committed.
func (t *Trunk) CommittedUp() int64 { return t.UpBudget.committed }

// CommittedDown is the core→edge bandwidth currently committed.
func (t *Trunk) CommittedDown() int64 { return t.DownBudget.committed }

// Headroom is the trunk's remaining budget as a fraction of capacity,
// taken over the tighter of the two directions.
func (t *Trunk) Headroom() float64 {
	return min(t.UpBudget.Headroom(), t.DownBudget.Headroom())
}
