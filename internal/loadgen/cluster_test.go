package loadgen

import (
	"testing"

	"repro/internal/sim"
)

// clusterCfg is the shared cluster scenario: 4 nodes, an 8-title
// catalog with a steep Zipf skew, 48 unicast requests. At this
// geometry a node's array carries ~10 streams, and the hottest title
// (~55% of requests) lands alone on its home node — over-subscribed
// more than 2× unless the site replicates it.
func clusterCfg() Config {
	return Config{
		Cluster:      true,
		Workstations: 24,
		StreamsPerWS: 2,
		Servers:      4,
		Titles:       8,
		ZipfS:        1.6,
		FrameBytes:   4800,
		Round:        500 * sim.Millisecond,
		TitleRounds:  2,
		Duration:     8 * sim.Second,
	}
}

// TestClusterReplicationBeatsStatic is the site-level acceptance run:
// the hottest title over-subscribes its home array, the controller
// replicates it reactively from round slack, refused requests are
// re-admitted onto the new replicas, and the run ends with strictly
// more streams playing than the identical run with replication
// disabled — all with zero underruns on every admitted stream.
func TestClusterReplicationBeatsStatic(t *testing.T) {
	sc := Build(clusterCfg())
	r := sc.Run()

	hot := sc.Controller().Titles()[0]
	if len(hot.Replicas()) < 2 {
		t.Fatalf("hot title still has %d replica(s) — reactive replication never fired", len(hot.Replicas()))
	}
	if r.ReplicasTriggered == 0 || r.ReplicasCompleted == 0 {
		t.Fatalf("replication triggered=%d completed=%d, want both > 0",
			r.ReplicasTriggered, r.ReplicasCompleted)
	}
	if r.Underruns != 0 {
		t.Fatalf("%d underruns among admitted streams", r.Underruns)
	}
	if r.FramesDelivered == 0 {
		t.Fatal("no frames delivered")
	}
	active := 0
	for _, na := range r.NodeAdmissions {
		if na > 0 {
			active++
		}
	}
	if active < 3 {
		t.Fatalf("admissions on %d nodes (%v), want >= 3", active, r.NodeAdmissions)
	}

	static := clusterCfg()
	static.ReplicationDisabled = true
	rs := Build(static).Run()
	if rs.ReplicasTriggered != 0 {
		t.Fatalf("ablation replicated anyway: %d", rs.ReplicasTriggered)
	}
	if r.StorageStreams <= rs.StorageStreams {
		t.Fatalf("replication served %d streams vs %d static — no win",
			r.StorageStreams, rs.StorageStreams)
	}
	if rs.SiteRefused <= r.SiteRefused {
		t.Fatalf("refusals: %d with replication vs %d static", r.SiteRefused, rs.SiteRefused)
	}
}

// TestClusterDeterminism: placement, Zipf sampling, slack copies and
// retries must not introduce nondeterminism.
func TestClusterDeterminism(t *testing.T) {
	a := Build(clusterCfg()).Run()
	b := Build(clusterCfg()).Run()
	if a.FramesSent != b.FramesSent || a.FramesDelivered != b.FramesDelivered ||
		a.EventsFired != b.EventsFired || a.StorageStreams != b.StorageStreams ||
		a.ReplicasCompleted != b.ReplicasCompleted || a.SiteRefused != b.SiteRefused {
		t.Fatalf("runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestClusterFailover kills a node mid-run on a 2-replica catalog: its
// streams must re-admit on surviving replicas and keep playing with no
// underruns anywhere.
func TestClusterFailover(t *testing.T) {
	cfg := Config{
		Cluster:      true,
		Workstations: 12,
		StreamsPerWS: 2,
		Servers:      4,
		Titles:       8,
		ZipfS:        1.1,
		BaseReplicas: 2,
		FrameBytes:   4800,
		Round:        500 * sim.Millisecond,
		TitleRounds:  2,
		Duration:     8 * sim.Second,
		FailNodeAt:   3 * sim.Second,
		FailNode:     0,
	}
	sc := Build(cfg)
	r := sc.Run()

	victim := sc.Controller().Nodes()[0]
	if !victim.Failed() {
		t.Fatal("victim never failed")
	}
	if r.FailoverRecovered == 0 {
		t.Fatalf("nothing recovered: recovered=%d dropped=%d",
			r.FailoverRecovered, r.FailoverDropped)
	}
	if r.Underruns != 0 {
		t.Fatalf("%d underruns across the failover", r.Underruns)
	}
	if victim.Streams() != 0 {
		t.Fatalf("dead node still serves %d streams", victim.Streams())
	}
	// Every live stream plays from a survivor and kept delivering after
	// the failure: total delivery exceeds what the pre-failure period
	// alone could produce.
	if r.StorageStreams == 0 || r.FramesDelivered == 0 {
		t.Fatalf("site dead after failover: streams=%d delivered=%d",
			r.StorageStreams, r.FramesDelivered)
	}
	for _, req := range sc.Streams() {
		if req.h != nil && req.h.(siteStream).Node().Failed() {
			t.Fatal("live request still points at the dead node")
		}
	}
}

// TestClusterAcceptance is the ISSUE-3 acceptance run in one piece: a
// Zipf-skewed run on 4 nodes whose hottest title over-subscribes its
// home array ends with that title replicated; killing the home node
// mid-run (after the copies landed) recovers a non-zero fraction of
// its streams on surviving replicas, and no stream ever underruns.
func TestClusterAcceptance(t *testing.T) {
	cfg := clusterCfg()
	cfg.Workstations = 16 // 32 requests: over-subscribed hot node, slack on survivors
	cfg.Duration = 10 * sim.Second
	cfg.FailNodeAt = 6 * sim.Second
	cfg.FailNode = 0
	sc := Build(cfg)
	r := sc.Run()

	hot := sc.Controller().Titles()[0]
	if len(hot.Replicas()) < 2 {
		t.Fatalf("hot title has %d replica(s) at exit", len(hot.Replicas()))
	}
	if r.ReplicasCompleted == 0 {
		t.Fatal("no replication completed before the failure")
	}
	if r.FailoverRecovered == 0 {
		t.Fatalf("node death recovered nothing (dropped=%d)", r.FailoverDropped)
	}
	if r.FailoverRecovered+r.FailoverDropped == 0 {
		t.Fatal("the failed node was serving nothing — bad geometry")
	}
	if r.Underruns != 0 {
		t.Fatalf("%d underruns across replication + failover", r.Underruns)
	}
	if r.StorageStreams == 0 || r.FramesDelivered == 0 {
		t.Fatalf("site dead at exit: streams=%d delivered=%d", r.StorageStreams, r.FramesDelivered)
	}
}
