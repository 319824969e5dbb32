package core_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/netsig"
	"repro/internal/sim"
)

// Session-test geometry: 19200-byte frames at 100 Hz over 200 ms rounds
// on a 64 KiB-segment array (16 KiB chunks). One full-quality window
// costs ~119 ms of per-disk time — one stream fills the 170 ms budget —
// while the floor tier (¼) costs ~49 ms, so degrade-instead-of-refuse
// admits three.
const (
	sFrameBytes  = 19200
	sFrameHz     = 100
	sPeakRate    = 19_200_000
	sRound       = 200 * sim.Millisecond
	sTitleRounds = 2
)

func sTitleBytes() int64 {
	return sTitleRounds * int64(sFrameHz) * int64(sRound) / int64(sim.Second) * sFrameBytes
}

// sessionSite builds a site with one CM-serving storage node holding
// `titles` preloaded titles and `viewers` plain endpoints, with uplink
// admission on so all three budgets (downlink, uplink, disk) are live.
func sessionSite(t testing.TB, viewers, titles int) (*core.Site, *core.StorageServer, []*core.Endpoint) {
	t.Helper()
	return cacheSessionSite(t, viewers, titles, 0)
}

// cacheSessionSite is sessionSite with an interval-caching RAM tier of
// cacheBytes on the node (0 disables — plain sessionSite).
func cacheSessionSite(t testing.TB, viewers, titles int, cacheBytes int64) (*core.Site, *core.StorageServer, []*core.Endpoint) {
	t.Helper()
	cfg := core.DefaultSiteConfig()
	cfg.Ports = viewers + 1
	site := core.NewSite(cfg)
	site.Signalling.EnableUplinkAdmission()
	ss := site.NewStorageServer("vod", 64<<10, int64(titles*16+32))
	eps := make([]*core.Endpoint, viewers)
	for i := range eps {
		eps[i] = site.Attach(fmt.Sprintf("viewer%d", i))
	}
	data := make([]byte, sTitleBytes())
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
	ss.EnableCM(fileserver.CMConfig{Round: sRound, CacheBytes: cacheBytes})
	return site, ss, eps
}

func spec(ss *core.StorageServer, ep *core.Endpoint, class core.QoSClass, title string) core.SessionSpec {
	return core.SessionSpec{
		Class:      class,
		InPort:     ss.Net.Port,
		OutPorts:   []int{ep.Port},
		PeakRate:   sPeakRate,
		CM:         ss.CM,
		Title:      title,
		FrameBytes: sFrameBytes,
		FrameHz:    sFrameHz,
	}
}

// TestOpenSessionRollbackReleasesLink is the admission-rollback
// contract the old AdmitGuaranteed tuple carried and OpenSession must
// keep: when the disk half refuses, the link reservation — leaf AND
// uplink — taken a moment earlier is fully released, so a stream that
// cannot be served never occupies a circuit.
func TestOpenSessionRollbackReleasesLink(t *testing.T) {
	site, ss, eps := sessionSite(t, 2, 2)
	m := site.Signalling
	// Fill the disk budget with the first stream.
	first, err := site.OpenSession(spec(ss, eps[0], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatalf("first open refused: %v", err)
	}
	upBefore, leafBefore := m.CommittedUplink(ss.Net.Port), m.Committed(eps[1].Port)
	circuitsBefore := m.Open()
	// A second guaranteed stream fits every link but not the disks.
	_, err = site.OpenSession(spec(ss, eps[1], core.Guaranteed, "title1"))
	if !errors.Is(err, fileserver.ErrOverCommit) {
		t.Fatalf("err = %v, want ErrOverCommit", err)
	}
	if got := m.Committed(eps[1].Port); got != leafBefore {
		t.Fatalf("leaf committed %d after disk refusal, want %d released", got, leafBefore)
	}
	if got := m.CommittedUplink(ss.Net.Port); got != upBefore {
		t.Fatalf("uplink committed %d after disk refusal, want %d released", got, upBefore)
	}
	if m.Open() != circuitsBefore {
		t.Fatalf("circuits %d after disk refusal, want %d — refused stream holds a circuit", m.Open(), circuitsBefore)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if m.CommittedUplink(ss.Net.Port) != 0 || ss.CM.Committed() != 0 {
		t.Fatal("budgets not returned to zero after close")
	}
}

func TestSessionLifecycleAndIdempotentClose(t *testing.T) {
	site, ss, eps := sessionSite(t, 1, 1)
	s, err := site.OpenSession(spec(ss, eps[0], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatal(err)
	}
	if s.VCI() == 0 || s.CM() == nil || s.Rate() != sPeakRate || s.Factor() != 1 {
		t.Fatalf("session state: vci=%d cm=%v rate=%d factor=%g", s.VCI(), s.CM(), s.Rate(), s.Factor())
	}
	if len(site.Sessions()) != 1 {
		t.Fatalf("open sessions = %d", len(site.Sessions()))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if !s.Closed() || s.VCI() != 0 || len(site.Sessions()) != 0 {
		t.Fatal("close did not settle session state")
	}
	if site.Signalling.Committed(eps[0].Port) != 0 || ss.CM.Committed() != 0 {
		t.Fatal("budgets not zero after close")
	}
	if st := site.QoSStats; st.Opened != 1 || st.Closed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSessionRenegotiate(t *testing.T) {
	site, ss, eps := sessionSite(t, 2, 2)
	s, err := site.OpenSession(spec(ss, eps[0], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatal(err)
	}
	// Shrink: always succeeds, frees both halves.
	diskFull := ss.CM.Committed()
	if err := s.Renegotiate(sPeakRate / 2); err != nil {
		t.Fatalf("shrink refused: %v", err)
	}
	if s.Rate() != sPeakRate/2 {
		t.Fatalf("rate = %d", s.Rate())
	}
	if site.Signalling.Committed(eps[0].Port) != sPeakRate/2 {
		t.Fatalf("leaf committed = %d", site.Signalling.Committed(eps[0].Port))
	}
	if ss.CM.Committed() >= diskFull {
		t.Fatal("disk commitment did not shrink")
	}
	if s.CM().FrameBytes() != sFrameBytes/2 {
		t.Fatalf("served tier = %d", s.CM().FrameBytes())
	}
	// Grow back: room exists, must succeed.
	if err := s.Renegotiate(sPeakRate); err != nil {
		t.Fatalf("grow refused with room: %v", err)
	}
	if s.Rate() != sPeakRate || ss.CM.Committed() != diskFull {
		t.Fatal("grow did not restore both halves")
	}
	// Grow when the disk is full: refused, session untouched.
	if err := s.Renegotiate(sPeakRate / 2); err != nil {
		t.Fatal(err)
	}
	var fill []*core.Session
	for {
		o, err := site.OpenSession(spec(ss, eps[1], core.Adaptive, "title1"))
		if err != nil {
			break
		}
		fill = append(fill, o)
	}
	rate, fb := s.Rate(), s.CM().FrameBytes()
	if err := s.Renegotiate(sPeakRate); !errors.Is(err, fileserver.ErrOverCommit) {
		t.Fatalf("grow into full disk: err = %v, want ErrOverCommit", err)
	}
	if s.Rate() != rate || s.CM().FrameBytes() != fb || s.Closed() {
		t.Fatal("refused grow changed the session")
	}
	for _, o := range fill {
		o.Close()
	}
}

// TestAdaptiveDegradesToMakeRoom is the tentpole policy: an Adaptive
// open that would be refused scales the contending Adaptive sessions
// down the shared tier ladder — floor-bounded — and admits strictly
// more streams than the Guaranteed class can, refusing only when even
// the floor does not fit.
func TestAdaptiveDegradesToMakeRoom(t *testing.T) {
	// Guaranteed baseline: the disk carries exactly one full stream.
	site, ss, eps := sessionSite(t, 4, 4)
	admitted := 0
	for i := 0; i < 4; i++ {
		s, err := site.OpenSession(spec(ss, eps[i], core.Guaranteed, fmt.Sprintf("title%d", i)))
		if err == nil && s != nil {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("guaranteed baseline admitted %d, want 1", admitted)
	}

	site2, ss2, eps2 := sessionSite(t, 4, 4)
	var open []*core.Session
	for i := 0; i < 4; i++ {
		s, err := site2.OpenSession(spec(ss2, eps2[i], core.Adaptive, fmt.Sprintf("title%d", i)))
		if err != nil {
			break
		}
		open = append(open, s)
	}
	if len(open) <= admitted {
		t.Fatalf("adaptive admitted %d, want strictly more than guaranteed's %d", len(open), admitted)
	}
	for _, s := range open {
		if !s.Degraded() {
			t.Fatalf("session %d at factor %g on an over-subscribed disk, want degraded", s.ID(), s.Factor())
		}
		if s.Factor() < core.DefaultMinRateFrac {
			t.Fatalf("session %d below its floor: %g", s.ID(), s.Factor())
		}
	}
	if cm := ss2.CM; cm.Committed() > cm.Capacity() {
		t.Fatalf("disk over-committed: %v > %v", cm.Committed(), cm.Capacity())
	}
	if site2.QoSStats.Degraded == 0 {
		t.Fatal("no degrade events counted")
	}
}

// TestAdaptiveRestoresOnClose: freed capacity flows back to degraded
// survivors, hottest tier first.
func TestAdaptiveRestoresOnClose(t *testing.T) {
	site, ss, eps := sessionSite(t, 4, 4)
	var open []*core.Session
	for i := 0; i < 3; i++ {
		s, err := site.OpenSession(spec(ss, eps[i], core.Adaptive, fmt.Sprintf("title%d", i)))
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		open = append(open, s)
	}
	for _, s := range open[1:] {
		if !s.Degraded() {
			t.Fatal("expected degraded sessions before the close")
		}
	}
	open[1].Close()
	open[2].Close()
	if open[0].Factor() != 1 {
		t.Fatalf("survivor at factor %g after closes freed the disk, want 1 (restored)", open[0].Factor())
	}
	if site.QoSStats.Restored == 0 {
		t.Fatal("no restore events counted")
	}
}

func TestSessionDegradeRestoreVerbs(t *testing.T) {
	site, ss, eps := sessionSite(t, 1, 1)
	s, err := site.OpenSession(spec(ss, eps[0], core.Guaranteed, "title0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Degrade(0.5); err != nil {
		t.Fatal(err)
	}
	if s.Factor() != 0.5 || s.Rate() != sPeakRate/2 {
		t.Fatalf("factor=%g rate=%d after Degrade(0.5)", s.Factor(), s.Rate())
	}
	// The floor clamps a deep degrade.
	if err := s.Degrade(0.1); err != nil {
		t.Fatal(err)
	}
	if s.Factor() != core.DefaultMinRateFrac {
		t.Fatalf("factor=%g, want floor %g", s.Factor(), core.DefaultMinRateFrac)
	}
	if err := s.Restore(); err != nil {
		t.Fatal(err)
	}
	if s.Factor() != 1 || s.Rate() != sPeakRate || s.CM().FrameBytes() != sFrameBytes {
		t.Fatalf("restore incomplete: factor=%g rate=%d tier=%d", s.Factor(), s.Rate(), s.CM().FrameBytes())
	}
	s.Close()
	if err := s.Degrade(0.5); !errors.Is(err, core.ErrSessionClosed) {
		t.Fatalf("degrade on closed session: %v", err)
	}
	if err := s.Renegotiate(sPeakRate); !errors.Is(err, core.ErrSessionClosed) {
		t.Fatalf("renegotiate on closed session: %v", err)
	}
}

// TestOpenSessionLinkRefusal: a pure link refusal (viewer downlink too
// small) surfaces as netsig.ErrAdmission and holds nothing.
func TestOpenSessionLinkRefusal(t *testing.T) {
	site, ss, eps := sessionSite(t, 1, 1)
	site.Signalling.SetPortCapacity(eps[0].Port, sPeakRate/2)
	_, err := site.OpenSession(spec(ss, eps[0], core.Guaranteed, "title0"))
	if !errors.Is(err, netsig.ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission", err)
	}
	if ss.CM.Committed() != 0 || site.Signalling.CommittedUplink(ss.Net.Port) != 0 {
		t.Fatal("refused open left a budget charged")
	}
	if site.QoSStats.Refused != 1 {
		t.Fatalf("refused = %d", site.QoSStats.Refused)
	}
}
