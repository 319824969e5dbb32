package core_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/nemesis"
	"repro/internal/sched"
	"repro/internal/sim"
)

// CPU-test geometry: small frames over a roomy 500 ms round, so the
// disks and links barely notice a stream, while the node CPU's
// protocol-processing throughput is cut to 256 KiB/s — one full-quality
// stream reserves ~48% of the utilisation cap, so the second full open
// is refused by the CPU with every other budget nearly empty.
const (
	cFrameBytes = 1200
	cFrameHz    = 100
	cPeakRate   = 1_600_000
	cRound      = 500 * sim.Millisecond
)

// cpuSite builds a one-node site with CPU admission enabled and
// `titles` preloaded small-frame titles.
func cpuSite(t testing.TB, viewers, titles int) (*core.Site, *core.StorageServer, []*core.Endpoint) {
	t.Helper()
	cfg := core.DefaultSiteConfig()
	cfg.Ports = viewers + 1
	site := core.NewSite(cfg)
	site.Signalling.EnableUplinkAdmission()
	ss := site.NewStorageServer("vod", 64<<10, int64(titles*4+32))
	ss.EnableCPU(core.CPUConfig{BytesPerSec: 256 << 10})
	eps := make([]*core.Endpoint, viewers)
	for i := range eps {
		eps[i] = site.Attach(fmt.Sprintf("viewer%d", i))
	}
	titleBytes := 2 * int64(cFrameHz) * int64(cRound) / int64(sim.Second) * cFrameBytes
	data := make([]byte, titleBytes)
	for i := range data {
		data[i] = byte(i * 13)
	}
	for i := 0; i < titles; i++ {
		name := fmt.Sprintf("title%d", i)
		if err := ss.Server.Create(name, true); err != nil {
			t.Fatal(err)
		}
		if err := ss.Server.Write(name, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	ss.Server.FS().Sync(func(err error) {
		if err != nil {
			t.Errorf("preload sync: %v", err)
		}
	})
	site.Sim.Run()
	ss.EnableCM(fileserver.CMConfig{Round: cRound})
	return site, ss, eps
}

func cpuSpec(ss *core.StorageServer, ep *core.Endpoint, class core.QoSClass, title string) core.SessionSpec {
	return core.SessionSpec{
		Class:      class,
		InPort:     ss.Net.Port,
		OutPorts:   []int{ep.Port},
		PeakRate:   cPeakRate,
		CM:         ss.CM,
		Title:      title,
		FrameBytes: cFrameBytes,
		FrameHz:    cFrameHz,
		CPU:        ss.CPU,
	}
}

// liveDomains counts kernel domains not yet Dead.
func liveDomains(k *nemesis.Kernel) int {
	n := 0
	for _, d := range k.Domains() {
		if d.State() != nemesis.Dead {
			n++
		}
	}
	return n
}

// TestOpenSessionCPURollback is the CPU mirror of the PR-4 disk-refusal
// rollback contract: when the CPU leg refuses, the leaf, uplink and
// disk reservations taken a moment earlier are all released, no circuit
// is held, and no domain is left registered in the kernel.
func TestOpenSessionCPURollback(t *testing.T) {
	site, ss, eps := cpuSite(t, 2, 2)
	m := site.Signalling
	first, err := site.OpenSession(cpuSpec(ss, eps[0], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatalf("first open refused: %v", err)
	}
	if first.CPU() == nil || first.CPU().Released() {
		t.Fatal("admitted session holds no CPU domain")
	}
	upBefore, leafBefore := m.CommittedUplink(ss.Net.Port), m.Committed(eps[1].Port)
	diskBefore := ss.CM.Committed()
	cpuBefore := ss.CPU.QoS.ReservedUtilization()
	circuitsBefore, liveBefore := m.Open(), liveDomains(ss.CPU.Kernel)

	// The second full-quality stream fits every link and the disks, but
	// not the CPU.
	_, err = site.OpenSession(cpuSpec(ss, eps[1], core.Guaranteed, "title1"))
	if !errors.Is(err, sched.ErrOverCommit) {
		t.Fatalf("err = %v, want sched.ErrOverCommit", err)
	}
	if got := m.Committed(eps[1].Port); got != leafBefore {
		t.Fatalf("leaf committed %d after CPU refusal, want %d released", got, leafBefore)
	}
	if got := m.CommittedUplink(ss.Net.Port); got != upBefore {
		t.Fatalf("uplink committed %d after CPU refusal, want %d released", got, upBefore)
	}
	if got := ss.CM.Committed(); got != diskBefore {
		t.Fatalf("disk committed %v after CPU refusal, want %v released", got, diskBefore)
	}
	if got := ss.CPU.QoS.ReservedUtilization(); got != cpuBefore {
		t.Fatalf("CPU reserved %g after refusal, want %g", got, cpuBefore)
	}
	if m.Open() != circuitsBefore {
		t.Fatalf("circuits %d after CPU refusal, want %d — refused stream holds a circuit",
			m.Open(), circuitsBefore)
	}
	if got := liveDomains(ss.CPU.Kernel); got != liveBefore {
		t.Fatalf("%d live domains after CPU refusal, want %d — refused stream left a domain registered",
			got, liveBefore)
	}
	if ss.CPU.Stats.Refused == 0 {
		t.Fatal("CPU refusal not counted")
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if m.CommittedUplink(ss.Net.Port) != 0 || ss.CM.Committed() != 0 ||
		ss.CPU.QoS.ReservedUtilization() != 0 {
		t.Fatal("budgets not returned to zero after close")
	}
	if got := liveDomains(ss.CPU.Kernel); got != 0 {
		t.Fatalf("%d live domains after close-all, want 0", got)
	}
}

// TestSessionCPUReshape: Degrade/Restore reshape the CPU reservation
// through the QoS manager exactly as they reshape link and disk
// budgets, and a refused grow changes nothing on any leg.
func TestSessionCPUReshape(t *testing.T) {
	site, ss, eps := cpuSite(t, 2, 2)
	s, err := site.OpenSession(cpuSpec(ss, eps[0], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatal(err)
	}
	full := ss.CPU.QoS.ReservedUtilization()
	if err := s.Degrade(0.5); err != nil {
		t.Fatal(err)
	}
	half := ss.CPU.QoS.ReservedUtilization()
	if half >= full {
		t.Fatalf("CPU reservation %g after Degrade(0.5), want below %g", half, full)
	}
	if err := s.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := ss.CPU.QoS.ReservedUtilization(); got != full {
		t.Fatalf("CPU reservation %g after Restore, want %g", got, full)
	}
	// Fill the CPU with a second (degradable) session, then try to grow
	// through it: the grow must be refused and leave every leg as it was.
	if err := s.Degrade(0.5); err != nil {
		t.Fatal(err)
	}
	var fill []*core.Session
	for {
		o, err := site.OpenSession(cpuSpec(ss, eps[1], core.Guaranteed, "title1"))
		if err != nil {
			break
		}
		fill = append(fill, o)
	}
	rate, cpuU, diskC := s.Rate(), ss.CPU.QoS.ReservedUtilization(), ss.CM.Committed()
	if err := s.Renegotiate(cPeakRate); !errors.Is(err, sched.ErrOverCommit) {
		t.Fatalf("grow to full through a full CPU: err = %v, want sched.ErrOverCommit", err)
	}
	if s.Rate() != rate || ss.CPU.QoS.ReservedUtilization() != cpuU || ss.CM.Committed() != diskC {
		t.Fatal("refused CPU grow changed a budget")
	}
	for _, o := range fill {
		o.Close()
	}
	s.Close()
}

// TestAdaptiveDegradesOnCPU: with the processor as the scarce resource,
// a refused Adaptive open walks contenders down the tier ladder exactly
// as it does for link and disk refusals, admitting strictly more
// streams than the Guaranteed class can carry.
func TestAdaptiveDegradesOnCPU(t *testing.T) {
	site, ss, eps := cpuSite(t, 4, 4)
	admitted := 0
	for i := 0; i < 4; i++ {
		if _, err := site.OpenSession(cpuSpec(ss, eps[i], core.Guaranteed, fmt.Sprintf("title%d", i))); err == nil {
			admitted++
		}
	}

	site2, ss2, eps2 := cpuSite(t, 4, 4)
	var open []*core.Session
	for i := 0; i < 4; i++ {
		s, err := site2.OpenSession(cpuSpec(ss2, eps2[i], core.Adaptive, fmt.Sprintf("title%d", i)))
		if err != nil {
			break
		}
		open = append(open, s)
	}
	if len(open) <= admitted {
		t.Fatalf("adaptive admitted %d, want strictly more than guaranteed's %d", len(open), admitted)
	}
	if u, cap := ss2.CPU.QoS.ReservedUtilization(), ss2.CPU.Config().Cap; u > cap+1e-9 {
		t.Fatalf("CPU over-reserved: %g > %g", u, cap)
	}
	// The disks were never the constraint: strictly before exhaustion.
	if cm := ss2.CM; cm.Committed() >= cm.Capacity() {
		t.Fatalf("disk budget exhausted (%v of %v); CPU was supposed to refuse first",
			cm.Committed(), cm.Capacity())
	}
	if ss.CM.Stats.Refused != 0 || ss2.CM.Stats.Refused != 0 {
		t.Fatal("disk admission refused a stream in a CPU-bound scenario")
	}
	if site2.QoSStats.Degraded == 0 {
		t.Fatal("no degrade events counted")
	}
}

// TestWorkstationCPULinkOnlySessions: a receiving workstation's
// protocol CPU can be the CPU leg of link-only sessions (receive-side
// protocol processing): the contract derives from PeakRate at
// DefaultCPUHz, and refusal/rollback/teardown behave exactly as on a
// storage node.
func TestWorkstationCPULinkOnlySessions(t *testing.T) {
	cfg := core.DefaultSiteConfig()
	cfg.Ports = 4
	site := core.NewSite(cfg)
	w := site.NewWorkstation("ws")
	// 1 MiB/s at DefaultCPUHz: a 4 Mb/s stream charges 500000 bytes/s
	// → 5000 bytes per 10 ms period → ~4.8 ms + 20 µs ≈ 48% — one
	// stream fills a 0.5 cap.
	cpu := core.NewNodeCPU(site.Sim, core.CPUConfig{Cap: 0.5, BytesPerSec: 1 << 20})
	sender := site.Attach("sender")
	spec := core.SessionSpec{
		Class:    core.Guaranteed,
		InPort:   sender.Port,
		OutPorts: []int{w.Net.Port},
		PeakRate: 4_000_000,
		CPU:      cpu,
	}
	a, err := site.OpenSession(spec)
	if err != nil {
		t.Fatalf("link-only CPU session refused: %v", err)
	}
	if a.CPU() == nil || a.CM() != nil {
		t.Fatal("session shape wrong: want CPU leg, no disk leg")
	}
	if _, err := site.OpenSession(spec); !errors.Is(err, sched.ErrOverCommit) {
		t.Fatalf("second open: err = %v, want sched.ErrOverCommit at the 0.5 cap", err)
	}
	if got := site.Signalling.Committed(w.Net.Port); got != 4_000_000 {
		t.Fatalf("leaf committed %d after CPU refusal rollback, want first session's 4000000", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if cpu.QoS.ReservedUtilization() != 0 {
		t.Fatal("workstation CPU reservation survived the close")
	}
}

// TestSessionCPUZeroDeadlineMisses: admitted streams' protocol domains
// meet every EDF deadline over a multi-second run — the CPU guarantee
// holding end to end, like zero underruns on the disk side.
func TestSessionCPUZeroDeadlineMisses(t *testing.T) {
	site, ss, eps := cpuSite(t, 2, 2)
	a, err := site.OpenSession(cpuSpec(ss, eps[0], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := site.OpenSession(cpuSpec(ss, eps[1], core.Adaptive, "title1"))
	if err != nil {
		t.Fatalf("adaptive open (should degrade into room): %v", err)
	}
	site.Sim.RunFor(2 * sim.Second)
	if got := ss.CPU.Stats.DeadlineMisses; got != 0 {
		t.Fatalf("%d EDF deadline misses among admitted streams, want 0", got)
	}
	if a.CPU().Misses != 0 || b.CPU().Misses != 0 {
		t.Fatalf("per-stream misses: a=%d b=%d", a.CPU().Misses, b.CPU().Misses)
	}
	if used := a.CPU().Domain().Stats.Used; used == 0 {
		t.Fatal("stream domain consumed no CPU; the protocol load never ran")
	}
	a.Close()
	b.Close()
	if got := len(ss.CPU.Kernel.Domains()); got != 0 {
		t.Fatalf("%d domains still registered after close-all, want 0 — killed domains must not accumulate", got)
	}
}
