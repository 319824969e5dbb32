package vodsite_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

// Test geometry: 4800-byte frames at 100 Hz over 200 ms rounds. One
// window costs ~40 ms of per-disk time, so an array holds 4 streams at
// the default 0.85 utilization (3 at 0.70, leaving slack a best-effort
// copy read fits into).
const (
	frameBytes  = 4800
	frameHz     = 100
	peakRate    = 5_300_000
	titleRounds = 2
	round       = 200 * sim.Millisecond
)

func titleBytes() int64 {
	return titleRounds * int64(frameHz) * int64(round) / int64(sim.Second) * frameBytes
}

// harness is a built site: controller over K nodes, V viewer endpoints,
// T titles placed and the serving services started.
type harness struct {
	ctrl    *vodsite.Controller
	site    *core.Site
	viewers []*core.Endpoint
}

func build(t *testing.T, nodes, viewers, titles int, cfg vodsite.Config, cm fileserver.CMConfig) *harness {
	t.Helper()
	siteCfg := core.DefaultSiteConfig()
	siteCfg.Ports = nodes + viewers
	site := core.NewSite(siteCfg)
	if cfg.PeakRate == 0 {
		cfg.PeakRate = peakRate
	}
	ctrl := vodsite.New(site, cfg)
	for i := 0; i < nodes; i++ {
		ctrl.AddNode(site.NewStorageServer("node", 256<<10, int64(titles*2+16)))
	}
	h := &harness{ctrl: ctrl, site: site}
	for i := 0; i < viewers; i++ {
		h.viewers = append(h.viewers, site.Attach("viewer"))
	}
	for i := 0; i < titles; i++ {
		ctrl.AddTitle(titleName(i), titleBytes(), frameBytes, frameHz)
	}
	if err := ctrl.Place(); err != nil {
		t.Fatal(err)
	}
	site.Sim.Run() // drain placement I/O
	if cm.Round == 0 {
		cm.Round = round
	}
	ctrl.Start(cm)
	return h
}

func titleName(i int) string { return "t" + string(rune('A'+i)) }

func TestPlacementSpreadsHotTitles(t *testing.T) {
	h := build(t, 4, 1, 8, vodsite.Config{}, fileserver.CMConfig{})
	cat := h.ctrl.Catalog()
	seen := map[int]bool{}
	for i, title := range h.ctrl.Titles() {
		reps := cat[title.Name]
		if len(reps) != 1 {
			t.Fatalf("%s: %d replicas, want 1", title.Name, len(reps))
		}
		if i < 4 {
			if seen[reps[0].ID] {
				t.Fatalf("hot titles share node %d — popularity mass not spread", reps[0].ID)
			}
			seen[reps[0].ID] = true
		}
	}
}

func TestPlacementBaseReplicas(t *testing.T) {
	h := build(t, 3, 1, 4, vodsite.Config{BaseReplicas: 2}, fileserver.CMConfig{})
	for name, reps := range h.ctrl.Catalog() {
		if len(reps) != 2 || reps[0].ID == reps[1].ID {
			t.Fatalf("%s: replicas %v, want 2 distinct nodes", name, reps)
		}
	}
}

func TestAdmitLeastCommittedOrder(t *testing.T) {
	h := build(t, 2, 4, 1, vodsite.Config{BaseReplicas: 2}, fileserver.CMConfig{})
	counts := map[int]int{}
	for i := 0; i < 4; i++ {
		st, err := h.ctrl.Admit(titleName(0), h.viewers[i].Port)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		counts[st.Node().ID]++
	}
	// Least-committed ordering alternates between the two replicas.
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("admissions %v, want 2 per replica", counts)
	}
}

func TestAdmissionIsLinkAndDiskConjunction(t *testing.T) {
	h := build(t, 1, 8, 1, vodsite.Config{}, fileserver.CMConfig{})
	node := h.ctrl.Nodes()[0]

	// Disk binds first at this geometry: 4 admissions fill the array.
	var admitted []*vodsite.Stream
	for i := 0; ; i++ {
		st, err := h.ctrl.Admit(titleName(0), h.viewers[i%len(h.viewers)].Port)
		if err != nil {
			if !errors.Is(err, vodsite.ErrNoReplica) {
				t.Fatalf("refusal is not ErrNoReplica: %v", err)
			}
			break
		}
		admitted = append(admitted, st)
	}
	if len(admitted) != 4 {
		t.Fatalf("admitted %d streams, want 4 (disk budget)", len(admitted))
	}
	if h.ctrl.Stats.Refused != 1 {
		t.Fatalf("refused %d, want 1", h.ctrl.Stats.Refused)
	}

	// Release everything: both budgets return to zero.
	for _, st := range admitted {
		st.Release()
	}
	if got := node.SS.CM.Committed(); got != 0 {
		t.Fatalf("disk committed %v after release, want 0", got)
	}
	if got := h.site.Signalling.CommittedUplink(node.SS.Net.Port); got != 0 {
		t.Fatalf("uplink committed %d after release, want 0", got)
	}

	// Now choke the uplink: one stream fits, the second is refused by
	// the link half even though the disks have room for four.
	h.site.Signalling.SetUplinkCapacity(node.SS.Net.Port, peakRate+peakRate/2)
	if _, err := h.ctrl.Admit(titleName(0), h.viewers[0].Port); err != nil {
		t.Fatalf("first admit under choked uplink: %v", err)
	}
	if _, err := h.ctrl.Admit(titleName(0), h.viewers[1].Port); !errors.Is(err, vodsite.ErrNoReplica) {
		t.Fatalf("uplink over-commit not refused: %v", err)
	}
	if got := node.SS.CM.Committed(); got >= node.SS.CM.Capacity() {
		t.Fatalf("disk committed %v — refusal was not the uplink's doing", got)
	}
}

// TestReactiveReplication over-subscribes a title's single home array,
// watches the controller copy it onto the idle node from round slack,
// and verifies the new replica is byte-identical and admits the
// previously refused load.
func TestReactiveReplication(t *testing.T) {
	h := build(t, 2, 8, 1, vodsite.Config{RefusalThreshold: 3},
		fileserver.CMConfig{Utilization: 0.7}) // 3 streams/array + copy slack
	ctrl := h.ctrl
	title := ctrl.Titles()[0]

	var completed int
	ctrl.OnReplica = func(tt *vodsite.Title, n *vodsite.Node) { completed++ }

	admits, refusals := 0, 0
	for i := 0; i < 6; i++ {
		if _, err := ctrl.Admit(title.Name, h.viewers[i].Port); err != nil {
			refusals++
		} else {
			admits++
		}
	}
	if admits != 3 || refusals != 3 {
		t.Fatalf("admits=%d refusals=%d, want 3/3", admits, refusals)
	}
	if ctrl.Stats.ReplicasTriggered != 1 || ctrl.Copying() != 1 {
		t.Fatalf("triggered=%d copying=%d, want 1/1", ctrl.Stats.ReplicasTriggered, ctrl.Copying())
	}

	h.site.Sim.RunFor(3 * sim.Second) // copy rides round slack
	if completed != 1 || ctrl.Stats.ReplicasCompleted != 1 {
		t.Fatalf("replica did not complete: completed=%d stats=%+v", completed, ctrl.Stats)
	}
	if len(title.Replicas()) != 2 {
		t.Fatalf("replica set %v, want 2 nodes", title.Replicas())
	}
	// Guaranteed service was untouched: the copy ran in slack.
	if ur := ctrl.Nodes()[0].SS.CM.Stats.Underruns; ur != 0 {
		t.Fatalf("%d underruns on the source during the copy", ur)
	}

	// The copy is byte-identical to the source.
	var src, dst []byte
	ctrl.Nodes()[0].SS.Server.Read(title.Name, 0, int(title.Bytes), func(b []byte, err error) { src = b })
	ctrl.Nodes()[1].SS.Server.Read(title.Name, 0, int(title.Bytes), func(b []byte, err error) { dst = b })
	h.site.Sim.RunFor(sim.Second) // CM tickers never stop; bounded drain
	if !bytes.Equal(src, dst) || len(src) == 0 {
		t.Fatalf("replica differs from source (%d vs %d bytes)", len(src), len(dst))
	}

	// The refused load now fits on the new replica.
	if _, err := ctrl.Admit(title.Name, h.viewers[6].Port); err != nil {
		t.Fatalf("admit after replication: %v", err)
	}
}

func TestFailoverRecoversOntoSurvivors(t *testing.T) {
	h := build(t, 3, 9, 3, vodsite.Config{BaseReplicas: 2, ReplicationDisabled: true},
		fileserver.CMConfig{})
	ctrl := h.ctrl

	var streams []*vodsite.Stream
	for i := 0; i < 6; i++ {
		st, err := ctrl.Admit(titleName(i%3), h.viewers[i].Port)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		streams = append(streams, st)
	}
	h.site.Sim.RunFor(500 * sim.Millisecond)

	victim := ctrl.Nodes()[0]
	served := victim.Streams()
	if served == 0 {
		t.Fatal("victim serves nothing — bad test geometry")
	}
	var readmits, drops int
	ctrl.OnReadmit = func(st *vodsite.Stream) { readmits++ }
	ctrl.OnDrop = func(st *vodsite.Stream) { drops++ }

	rep := ctrl.FailNode(victim)
	if rep.Streams != served || rep.Recovered+rep.Dropped != served {
		t.Fatalf("report %+v does not account for %d served streams", rep, served)
	}
	if rep.Recovered == 0 {
		t.Fatalf("nothing recovered: %+v", rep)
	}
	if readmits != rep.Recovered || drops != rep.Dropped {
		t.Fatalf("hooks fired %d/%d, report says %d/%d", readmits, drops, rep.Recovered, rep.Dropped)
	}

	// The dead node holds nothing: uplink free, no catalog entries.
	if got := h.site.Signalling.CommittedUplink(victim.SS.Net.Port); got != 0 {
		t.Fatalf("dead node's uplink still committed %d", got)
	}
	for _, title := range ctrl.Titles() {
		for _, n := range title.Replicas() {
			if n == victim {
				t.Fatalf("%s still lists the dead node as a replica", title.Name)
			}
		}
	}
	for _, st := range streams {
		if st.Released() {
			continue
		}
		if st.Node() == victim || st.Node() == nil {
			t.Fatalf("live stream still on the dead node: %+v", st)
		}
	}
	// Recovered streams play on: their read-ahead primes and no
	// underruns accrue on the survivors.
	h.site.Sim.RunFor(sim.Second)
	for _, n := range ctrl.Nodes()[1:] {
		if ur := n.SS.CM.Stats.Underruns; ur != 0 {
			t.Fatalf("node %d: %d underruns after failover", n.ID, ur)
		}
	}
	// Failing the same node again is a no-op.
	if rep2 := ctrl.FailNode(victim); rep2.Streams != 0 {
		t.Fatalf("second FailNode moved streams: %+v", rep2)
	}
}

// A copy onto a node whose array cannot take the writes (two members
// down) must not join a catalog: the target's Sync reports the failed
// segment writes, so the copy aborts and removes its partial file.
func TestTitleCopyAbortsWhenTargetSyncFails(t *testing.T) {
	h := build(t, 2, 1, 1, vodsite.Config{ReplicationDisabled: true}, fileserver.CMConfig{})
	src := h.ctrl.Catalog()[titleName(0)][0]
	dst := h.ctrl.Nodes()[1-src.ID]
	dst.SS.Server.FS().Array().FailDisk(0)
	dst.SS.Server.FS().Array().FailDisk(1)
	var done, aborted int
	cp := &vodsite.TitleCopy{
		Src: src, Dst: dst, Name: titleName(0), Bytes: titleBytes(), Chunk: 64 << 10,
		Done: func() { done++ }, Aborted: func() { aborted++ },
	}
	cp.Start()
	h.site.Sim.RunFor(5 * sim.Second) // CM tickers never stop; bounded drain
	if done != 0 || aborted != 1 {
		t.Fatalf("copy onto a dead array: Done %d, Aborted %d; want 0, 1", done, aborted)
	}
	if dst.SS.Server.Exists(titleName(0)) {
		t.Fatal("the aborted copy left its file on the target")
	}
}

// Every replica of a title is written from the one buffer Place generated,
// and the write path borrows it all the way into the disk images: a replica
// beyond the first costs its parity, summaries and part pages — under half
// the title — not another copy of the title.
func TestReplicasShareTheTitleBytes(t *testing.T) {
	const size = 1 << 20
	placed := func(replicas int) int64 {
		siteCfg := core.DefaultSiteConfig()
		siteCfg.Ports = replicas + 1
		site := core.NewSite(siteCfg)
		ctrl := vodsite.New(site, vodsite.Config{PeakRate: peakRate, BaseReplicas: replicas})
		for i := 0; i < replicas; i++ {
			ctrl.AddNode(site.NewStorageServer("node", 256<<10, 16))
		}
		ctrl.AddTitle("film", size, frameBytes, frameHz)
		before := heapAlloc()
		if err := ctrl.Place(); err != nil {
			t.Fatal(err)
		}
		site.Sim.Run()
		held := heapAlloc() - before
		if got := len(ctrl.Catalog()["film"]); got != replicas {
			t.Fatalf("%d replicas placed, want %d", got, replicas)
		}
		return held
	}
	one := placed(1)
	if one < size {
		t.Fatalf("one replica holds %d bytes, less than the title's %d", one, size)
	}
	for _, n := range []int{4, 16} {
		if per := (placed(n) - one) / int64(n-1); per >= size/2 {
			t.Errorf("%d replicas: %d bytes held per replica beyond the first, want < %d", n, per, size/2)
		}
	}
}

func heapAlloc() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
