package core

// Ledger conservation: the whole-site invariant behind the one
// reservation. Over seeded random traces mixing every session and
// broadcast verb, after every operation the sum over live reservations
// of each leg equals what netsig (link and uplink, per port), every
// CMService, every NodeCPU and both trunk directions (which spilled
// sessions' home legs cross) say is committed;
// a refused operation therefore holds nothing; and closing everything
// returns every budget to exactly zero.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fileserver"
	"repro/internal/netsig"
	"repro/internal/sim"
)

const (
	ledgerFrameBytes = 4800
	ledgerFrameHz    = 100
	ledgerRate       = 5_300_000
	ledgerRound      = 200 * sim.Millisecond
	ledgerTitles     = 3
)

// ledgerSite is a two-server site with every leg live: uplink
// budgeting, a RAM tier on the first server, CPUs on both, tight
// viewer links and a trunk whose budgets a few flows fit in.
type ledgerSite struct {
	site    *Site
	servers []*StorageServer
	viewers []int
	trunk   *fabric.Trunk
	trunkIn int
}

func newLedgerSite(t *testing.T) *ledgerSite {
	t.Helper()
	cfg := DefaultSiteConfig()
	cfg.Ports = 12
	st := NewSite(cfg)
	st.Signalling.EnableUplinkAdmission()
	ls := &ledgerSite{site: st, trunkIn: st.ReservePort()}
	coreSw := fabric.NewSwitch(st.Sim, "ledger-core", 1, 0)
	ls.trunk = fabric.JoinTier(st.Switch, ls.trunkIn, coreSw, 0, 3*ledgerRate, 10*sim.Microsecond)
	data := make([]byte, 2*ledgerFrameHz*int(ledgerRound)/int(sim.Second)*ledgerFrameBytes)
	for i := 0; i < 2; i++ {
		ss := st.NewStorageServer(fmt.Sprintf("vod%d", i), 64<<10, ledgerTitles*16+32)
		for k := 0; k < ledgerTitles; k++ {
			name := fmt.Sprintf("title%d", k)
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
		ls.servers = append(ls.servers, ss)
	}
	st.Sim.Run()
	for i, ss := range ls.servers {
		ss.EnableCM(fileserver.CMConfig{Round: ledgerRound, CacheBytes: int64(1-i) * 8 << 20})
		// A slow processor, so the CPU leg refuses before the disks do.
		ss.EnableCPU(CPUConfig{BytesPerSec: 2 << 20})
	}
	for i := 0; i < 6; i++ {
		p := st.Attach(fmt.Sprintf("viewer%d", i)).Port
		st.Signalling.SetPortCapacity(p, 3*ledgerRate)
		ls.viewers = append(ls.viewers, p)
	}
	return ls
}

// ledger is what the live reservations say they hold.
type ledger struct {
	link, uplink map[int]int64
	disk         map[*fileserver.CMService]sim.Duration
	cpu          map[*NodeCPU]float64
	up, down     int64
}

func (lg *ledger) circuit(t *testing.T, c *netsig.Circuit, rate int64) {
	t.Helper()
	if c.PeakRate != rate {
		t.Fatalf("circuit %d admitted at %d, its flow thinks %d", c.ID, c.PeakRate, rate)
	}
	for _, p := range c.OutPorts {
		lg.link[p] += rate
	}
	lg.uplink[c.InPort] += rate
}

func (lg *ledger) add(t *testing.T, r *reservation) {
	t.Helper()
	rate := r.Rate()
	if r.factor < r.floorFrac() || r.factor > 1 {
		t.Fatalf("live flow at tier %v outside [%v, 1]", r.factor, r.floorFrac())
	}
	if r.circ != nil {
		lg.circuit(t, r.circ, rate)
	}
	if r.cm != nil && !r.cm.CacheServed() {
		lg.disk[r.cmSvc] += r.cm.Cost()
	}
	if r.cpu != nil {
		lg.cpu[r.cpuSvc] += float64(r.cpu.Work()) / float64(r.cpu.Period())
	}
	for _, h := range []*trunkHold{&r.up, &r.down} {
		if h.budget != nil && h.held != rate {
			t.Fatalf("trunk direction held at %d by a flow admitted at %d", h.held, rate)
		}
	}
	lg.up += r.up.held
	lg.down += r.down.held
}

// audit recomputes every budget from the live reservations and compares
// it with what the resource managers have committed.
func (ls *ledgerSite) audit(t *testing.T, step string) {
	t.Helper()
	lg := ledger{link: map[int]int64{}, uplink: map[int]int64{},
		disk: map[*fileserver.CMService]sim.Duration{}, cpu: map[*NodeCPU]float64{}}
	for _, s := range ls.site.sessions {
		lg.add(t, &s.reservation)
	}
	for _, b := range ls.site.broadcasts {
		lg.add(t, &b.reservation)
		for _, j := range b.uniJoins {
			lg.circuit(t, j.circ, b.Rate())
		}
	}
	m := ls.site.Signalling
	for p := 0; p < ls.site.Switch.Ports(); p++ {
		if got, want := m.Committed(p), lg.link[p]; got != want || got > m.Capacity(p) {
			t.Fatalf("%s: port %d link commits %d of %d, live flows hold %d", step, p, got, m.Capacity(p), want)
		}
		if got, want := m.CommittedUplink(p), lg.uplink[p]; got != want || got > m.UplinkCapacity(p) {
			t.Fatalf("%s: port %d uplink commits %d of %d, live flows hold %d", step, p, got, m.UplinkCapacity(p), want)
		}
	}
	for _, ss := range ls.servers {
		if got, want := ss.CM.Committed(), lg.disk[ss.CM]; got != want || got > ss.CM.Capacity() {
			t.Fatalf("%s: %s disks commit %v of %v, live flows hold %v", step, ss.Name, got, ss.CM.Capacity(), want)
		}
		got, want := ss.CPU.QoS.ReservedUtilization(), lg.cpu[ss.CPU]
		if math.Abs(got-want) > 1e-9 || (want == 0 && got != 0) || got > ss.CPU.QoS.Cap+1e-9 {
			t.Fatalf("%s: %s CPU reserves %v of %v, live flows hold %v", step, ss.Name, got, ss.CPU.QoS.Cap, want)
		}
	}
	if got := ls.trunk.CommittedUp(); got != lg.up || got > ls.trunk.Capacity() {
		t.Fatalf("%s: trunk up commits %d, live flows hold %d", step, got, lg.up)
	}
	if got := ls.trunk.CommittedDown(); got != lg.down || got > ls.trunk.Capacity() {
		t.Fatalf("%s: trunk down commits %d, live flows hold %d", step, got, lg.down)
	}
}

// trace runs one seeded random trace and closes everything it opened.
func (ls *ledgerSite) trace(t *testing.T, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := ls.site
	pick := func(n int) int { return rng.Intn(n) }
	var joins []*Join
	for i := 0; i < ops; i++ {
		step := fmt.Sprintf("seed %d op %d", seed, i)
		sessions, casts := st.Sessions(), st.Broadcasts()
		// Weights out of 27: open 8, renegotiate 4, degrade 2, restore 2,
		// close 2, open broadcast 2, join 4, leave 2, close broadcast 1.
		switch op := pick(27); {
		case op < 8: // open a session
			ss := ls.servers[pick(2)]
			sp := SessionSpec{
				Class:       []QoSClass{Guaranteed, Adaptive, Adaptive}[pick(3)],
				InPort:      ss.Net.Port,
				OutPorts:    []int{ls.viewers[pick(len(ls.viewers))]},
				PeakRate:    ledgerRate,
				MinRateFrac: []float64{0, 0.1, 0.6}[pick(3)],
			}
			if pick(4) > 0 {
				sp.CM, sp.Title = ss.CM, fmt.Sprintf("title%d", pick(ledgerTitles))
				sp.FrameBytes, sp.FrameHz = ledgerFrameBytes, ledgerFrameHz
			}
			if pick(2) == 0 {
				sp.CPU = ss.CPU
			}
			if sp.CM == nil && pick(2) == 0 { // a spilled session's home leg
				sp.InPort = ls.trunkIn
				sp.TrunkUp, sp.TrunkDown = &ls.trunk.UpBudget, &ls.trunk.DownBudget
			}
			_, _ = st.OpenSession(sp)
		case op < 12 && len(sessions) > 0: // renegotiate
			s := sessions[pick(len(sessions))]
			_ = s.Renegotiate(1 + rng.Int63n(ledgerRate))
		case op < 14 && len(sessions) > 0:
			_ = sessions[pick(len(sessions))].Degrade(0.3 + 0.6*rng.Float64())
		case op < 16 && len(sessions) > 0:
			_ = sessions[pick(len(sessions))].Restore()
		case op < 18 && len(sessions) > 0:
			_ = sessions[pick(len(sessions))].Close()
		case op < 20: // open a broadcast
			sp := BroadcastSpec{
				InPort: ls.viewers[pick(len(ls.viewers))], PeakRate: ledgerRate,
				FrameBytes: ledgerFrameBytes, FrameHz: ledgerFrameHz,
				Unicast: pick(4) == 0,
			}
			if pick(2) == 0 {
				sp.CPU = ls.servers[pick(2)].CPU
			}
			_, _ = st.OpenBroadcast(sp)
		case op < 24 && len(casts) > 0: // join
			if j, err := casts[pick(len(casts))].Join(ls.viewers[pick(len(ls.viewers))]); err == nil {
				joins = append(joins, j)
			}
		case op < 26 && len(joins) > 0: // leave
			k := pick(len(joins))
			_ = joins[k].Leave()
			joins = append(joins[:k], joins[k+1:]...)
		case op < 27 && len(casts) > 0:
			_ = casts[pick(len(casts))].Close()
		default:
			st.Sim.RunFor(ledgerRound)
		}
		ls.audit(t, step)
	}
	for _, s := range st.Sessions() {
		if err := s.Close(); err != nil {
			t.Fatalf("seed %d: close session: %v", seed, err)
		}
	}
	for _, b := range st.Broadcasts() {
		if err := b.Close(); err != nil {
			t.Fatalf("seed %d: close broadcast: %v", seed, err)
		}
	}
	ls.audit(t, fmt.Sprintf("seed %d close-all", seed))
	if n := st.Signalling.Open(); n != 0 {
		t.Fatalf("seed %d: %d circuits survive close-all", seed, n)
	}
}

func TestLedgerConservationProperty(t *testing.T) {
	traces := 600
	if testing.Short() {
		traces = 60
	}
	ls := newLedgerSite(t)
	for seed := int64(0); seed < int64(traces); seed++ {
		ls.trace(t, seed, 48)
	}
	if q := ls.site.QoSStats; q.RefusedLeg[LegLink] == 0 || q.RefusedLeg[LegDisk] == 0 ||
		q.RefusedLeg[LegCPU] == 0 || q.RefusedLeg[LegTrunk] == 0 || q.Degraded == 0 || q.Restored == 0 {
		t.Fatalf("traces never refused on some leg or never moved a tier: %+v", q)
	}
}
