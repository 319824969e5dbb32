// Package core composes the Pegasus system of Fig 4: multimedia
// workstations (Nemesis kernel + local ATM devices on the switch),
// multimedia storage servers, and Unix nodes for the non-real-time
// control plane, all interconnected by the ATM fabric.
//
// The package owns the plumbing the paper assigns to the workstation's
// management process (§2.2): allocating switch ports and circuits,
// patching data streams device-to-device (so video never touches a
// CPU), pairing every data circuit with its control circuit, and wiring
// RPC transports and name spaces between nodes.
package core

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/devices"
	"repro/internal/disk"
	"repro/internal/fabric"
	"repro/internal/fileserver"
	"repro/internal/lfs"
	"repro/internal/names"
	"repro/internal/nemesis"
	"repro/internal/netsig"
	"repro/internal/raid"
	"repro/internal/rpc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// firstStaticVCI is the first circuit number AllocVCI hands out.
const firstStaticVCI atm.VCI = 100

// SiteConfig parameterises a Pegasus site.
type SiteConfig struct {
	// Name labels the site in its switch name and telemetry gauge
	// keys. Empty means "site", which is right for a standalone
	// installation; a metro gives every hosted site a unique name so
	// their gauges in the shared registry do not collide.
	Name string
	// Ports is the central switch's port count.
	Ports int
	// LinkRate is the bit rate of every attachment link.
	LinkRate int64
	// LinkDelay is per-link propagation delay.
	LinkDelay sim.Duration
	// FabricDelay is the switch transit time per cell.
	FabricDelay sim.Duration
	// SwitchCost is the kernel context-switch cost on workstations.
	SwitchCost sim.Duration
	// CellAccurate disables the batched AAL5 fast path on every link the
	// site creates: cell trains are then transmitted cell by cell, which
	// models cell-level interleaving under contention exactly at the
	// cost of one event per cell. Leave it false for site-scale runs;
	// see the fabric package docs for when cell-accurate mode matters.
	CellAccurate bool
	// DiskParams overrides the storage servers' disk geometry (nil =
	// disk.DefaultParams, the paper's 1994-era drive). Site-scale runs
	// use this to model modern flash so per-node stream counts reach
	// paper-argument scale.
	DiskParams *disk.Params
}

// DefaultSiteConfig matches the paper's testbed: 100 Mb/s links,
// microsecond-scale switch transit.
func DefaultSiteConfig() SiteConfig {
	return SiteConfig{
		Ports:       32,
		LinkRate:    fabric.Rate100M,
		LinkDelay:   2 * sim.Microsecond,
		FabricDelay: 3 * sim.Microsecond,
		SwitchCost:  10 * sim.Microsecond,
	}
}

// Site is one Pegasus installation: a switch and everything attached.
type Site struct {
	// Sim is the site's event kernel: every node, link and service on
	// the site schedules here, and harnesses run it.
	Sim    *sim.Sim
	Switch *fabric.Switch
	Config SiteConfig
	// Signalling is the site's connection manager (§2.2): circuits
	// established through it are admission-controlled against link
	// capacity. Patch/PlumbVideo bypass it (pre-provisioned circuits);
	// use OpenSession for guaranteed-rate streams.
	Signalling *netsig.Manager

	// QoSStats counts stream-plane activity: sessions opened, refused,
	// degraded, restored and closed (see session.go).
	QoSStats SessionStats

	// LiveStats counts live-plane activity: broadcasts, viewer
	// joins/leaves, refused joins and subtree tier moves (see
	// broadcast.go).
	LiveStats BroadcastStats

	// Metrics is the site's telemetry registry, always live: every
	// subsystem registers its gauges here as it comes up.
	Metrics *telemetry.Registry

	sessions   []*Session
	broadcasts []*Broadcast
	nextBcast  int

	tracer     *telemetry.Tracer
	cmNodes    map[*fileserver.CMService]string
	cmSessions map[*fileserver.CMStream]*Session

	nextPort int
	nextVCI  atm.VCI
}

// NewSite builds an empty standalone site: it owns its event kernel
// and telemetry registry, so the kernel's gauges are the site's too.
func NewSite(cfg SiteConfig) *Site {
	st := NewSiteOn(sim.New(), telemetry.NewRegistry(), cfg)
	st.Metrics.KernelGauges(st.Sim)
	return st
}

// NewSiteOn builds a site hosted on an externally owned event kernel s,
// with its telemetry in the caller's shared registry. This is the metro
// federation's constructor — N hosted sites share one kernel, one
// registry and one trace, and the metro layer owns cross-site gauges
// the site cannot see (trunks, catalog, the kernel itself).
func NewSiteOn(s *sim.Sim, reg *telemetry.Registry, cfg SiteConfig) *Site {
	if cfg.Name == "" {
		cfg.Name = "site"
	}
	st := &Site{Config: cfg, Sim: s, Metrics: reg, nextVCI: firstStaticVCI}
	st.Switch = fabric.NewSwitch(s, cfg.Name, cfg.Ports, cfg.FabricDelay)
	st.Signalling = netsig.NewManager(st.Switch, cfg.LinkRate)
	st.cmNodes = make(map[*fileserver.CMService]string)
	st.cmSessions = make(map[*fileserver.CMStream]*Session)
	st.registerSiteGauges()
	return st
}

// ReservePort claims the next free switch port without attaching an
// endpoint — how a metro takes the trunk port before any node comes
// up, so the port is deterministic (always port 0) per site.
func (st *Site) ReservePort() int { return st.allocPort() }

// AllocVCI hands out a site-unique circuit number for a hand-patched
// circuit. It panics once the numbers would reach signalling's range
// (netsig.VCIBase): a patched circuit sharing a VCI with an established
// one on the same port would merge with it into one routing entry.
func (st *Site) AllocVCI() atm.VCI {
	v := st.nextVCI
	if v >= netsig.VCIBase {
		panic(fmt.Sprintf("core: site %q has used all %d static VCIs", st.Config.Name, netsig.VCIBase-firstStaticVCI))
	}
	st.nextVCI++
	return v
}

// allocPort reserves the next switch port.
func (st *Site) allocPort() int {
	if st.nextPort >= st.Switch.Ports() {
		panic("core: switch ports exhausted; raise SiteConfig.Ports")
	}
	p := st.nextPort
	st.nextPort++
	return p
}

// Endpoint is one attachment to the switch: the device's transmit link
// into the switch and the switch's output link to the device.
type Endpoint struct {
	Port int
	// Sim is the kernel this attachment's links, demux and the node
	// behind it schedule on — always the site's Sim.
	Sim *sim.Sim
	// ToSwitch carries the device's cells into the fabric.
	ToSwitch *fabric.Link
	// FromSwitch delivers fabric cells to the device's handler.
	FromSwitch *fabric.Link
	// Demux receives everything from the switch; register per-VCI
	// handlers on it.
	Demux *devices.Demux
}

// Attach creates an endpoint on a fresh switch port.
func (st *Site) Attach(name string) *Endpoint {
	port := st.allocPort()
	dm := devices.NewDemux()
	ep := &Endpoint{Port: port, Sim: st.Sim, Demux: dm}
	ep.ToSwitch = fabric.NewLink(st.Sim, st.Config.LinkRate, st.Config.LinkDelay, 0, st.Switch.In(port))
	ep.FromSwitch = fabric.NewLink(st.Sim, st.Config.LinkRate, st.Config.LinkDelay, 0, dm)
	if st.Config.CellAccurate {
		ep.ToSwitch.SetCellAccurate(true)
		ep.FromSwitch.SetCellAccurate(true)
	}
	st.Switch.AttachOutput(port, ep.FromSwitch)
	return ep
}

// SetSink replaces the endpoint's delivery handler: everything arriving
// from the switch goes to h instead of the per-VCI demux. The link
// Attach created is reused in place — no second link object is built or
// registered with the switch, so nothing dangles.
func (ep *Endpoint) SetSink(h fabric.Handler) {
	ep.FromSwitch.SetSink(h)
}

// Patch routes a one-way circuit between two endpoints (VCI preserved).
func (st *Site) Patch(from *Endpoint, vci atm.VCI, to *Endpoint) {
	st.Switch.Route(from.Port, vci, to.Port, vci)
}

// PatchBidi routes a circuit in both directions — the shape every RPC
// connection uses.
func (st *Site) PatchBidi(a *Endpoint, vci atm.VCI, b *Endpoint) {
	st.Switch.Route(a.Port, vci, b.Port, vci)
	st.Switch.Route(b.Port, vci, a.Port, vci)
}

// Unpatch tears down a one-way circuit (every leaf routed from this
// input); it reports whether a route existed.
func (st *Site) Unpatch(from *Endpoint, vci atm.VCI) bool {
	return st.Switch.Unroute(from.Port, vci)
}

// Workstation is a multimedia workstation (Fig 1): a conventional CPU
// running Nemesis, with its multimedia devices attached directly to the
// network, not to the workstation bus.
type Workstation struct {
	Site *Site
	Name string

	Kernel *nemesis.Kernel
	EDF    *sched.EDFShares
	QoS    *sched.QoSManager
	NS     *names.NameSpace

	// Net is the CPU's own network endpoint (RPC, control traffic).
	Net       *Endpoint
	Transport *rpc.Transport

	cameraN, displayN, audioN int
}

// NewWorkstation adds a workstation with an EDF-over-shares kernel.
func (st *Site) NewWorkstation(name string) *Workstation {
	net := st.Attach(name + ".net")
	edf := sched.NewEDFShares()
	k := nemesis.NewKernel(net.Sim, nemesis.Config{
		SwitchCost:         st.Config.SwitchCost,
		SingleAddressSpace: true,
	}, edf)
	w := &Workstation{
		Site:   st,
		Name:   name,
		Kernel: k,
		EDF:    edf,
		QoS:    sched.NewQoSManager(net.Sim, edf),
		NS:     names.New(),
		Net:    net,
	}
	w.Transport = rpc.NewTransport(net.Sim)
	w.Transport.SetOutput(w.Net.ToSwitch)
	// RPC circuits are bound per VCI through BindRPC; there is no
	// catch-all binding, so a misrouted cell surfaces as an unhandled
	// VCI instead of being silently swallowed by the transport.
	return w
}

// BindRPC binds the workstation's transport to a circuit so RPC frames
// arriving on it are processed.
func (w *Workstation) BindRPC(vci atm.VCI) {
	w.Net.Demux.Register(vci, fabric.HandlerFunc(w.Transport.HandleCell))
}

// AttachCamera puts an ATM camera on its own switch port and returns
// it with its endpoint.
func (w *Workstation) AttachCamera(cfg devices.CameraConfig) (*devices.Camera, *Endpoint) {
	w.cameraN++
	ep := w.Site.Attach(fmt.Sprintf("%s.cam%d", w.Name, w.cameraN))
	if cfg.VCI == 0 {
		cfg.VCI = w.Site.AllocVCI()
	}
	if cfg.CtrlVCI == 0 {
		cfg.CtrlVCI = w.Site.AllocVCI()
	}
	cam := devices.NewCamera(ep.Sim, cfg, ep.ToSwitch)
	return cam, ep
}

// AttachDisplay puts an ATM display on its own switch port.
func (w *Workstation) AttachDisplay(wpx, hpx int) (*devices.Display, *Endpoint) {
	w.displayN++
	ep := w.Site.Attach(fmt.Sprintf("%s.disp%d", w.Name, w.displayN))
	d := devices.NewDisplay(ep.Sim, wpx, hpx, 0)
	// The display consumes everything arriving at its port: repoint the
	// link Attach built rather than registering a second one.
	ep.SetSink(d)
	return d, ep
}

// AttachAudioSource puts an audio capture node on its own port.
func (w *Workstation) AttachAudioSource(cfg devices.AudioSourceConfig) (*devices.AudioSource, *Endpoint) {
	w.audioN++
	ep := w.Site.Attach(fmt.Sprintf("%s.audio%d", w.Name, w.audioN))
	if cfg.VCI == 0 {
		cfg.VCI = w.Site.AllocVCI()
	}
	if cfg.CtrlVCI == 0 {
		cfg.CtrlVCI = w.Site.AllocVCI()
	}
	src := devices.NewAudioSource(ep.Sim, cfg, ep.ToSwitch)
	return src, ep
}

// AttachAudioSink puts a playout node on its own port, listening on the
// given circuit.
func (w *Workstation) AttachAudioSink(vci atm.VCI, delay sim.Duration) (*devices.AudioSink, *Endpoint) {
	w.audioN++
	ep := w.Site.Attach(fmt.Sprintf("%s.dac%d", w.Name, w.audioN))
	sink := devices.NewAudioSink(ep.Sim, delay)
	ep.Demux.Register(vci, sink)
	return sink, ep
}

// PlumbVideo is the §2.2 management operation: create a display window
// for a camera's stream, route the data and control circuits through
// the switch, and return the window. No CPU is on the resulting path.
func (st *Site) PlumbVideo(cam *devices.Camera, camEP *Endpoint, disp *devices.Display, dispEP *Endpoint, x, y int) *devices.Window {
	cfg := cam.Config()
	st.Patch(camEP, cfg.VCI, dispEP)
	st.Patch(camEP, cfg.CtrlVCI, dispEP)
	win := disp.CreateWindow(cfg.VCI, x, y, cfg.W, cfg.H)
	disp.AttachControl(cfg.CtrlVCI, cfg.VCI)
	return win
}

// StorageServer is the Pegasus file server node: the service stacks
// over the log on a five-disk array, plus its network endpoint.
type StorageServer struct {
	Site   *Site
	Name   string
	Server *fileserver.Server
	Net    *Endpoint
	Ingest *Ingest

	// CM is the continuous-media serving service (round-scheduled,
	// rate-admitted reads off the array); nil until EnableCM.
	CM *fileserver.CMService

	// CPU is the node's protocol-processing CPU: the Nemesis kernel
	// whose per-stream domains join the admission conjunction; nil
	// until EnableCPU.
	CPU *NodeCPU

	Transport *rpc.Transport
}

// NewStorageServer adds a storage node with the given log geometry.
func (st *Site) NewStorageServer(name string, segSize int, nseg int64) *StorageServer {
	net := st.Attach(name)
	p := disk.DefaultParams()
	if st.Config.DiskParams != nil {
		p = *st.Config.DiskParams
	}
	arr := raid.New(net.Sim, p, segSize, nseg)
	fs := lfs.New(net.Sim, arr, lfs.DefaultConfig(segSize))
	sv := fileserver.NewServer(net.Sim, fs)
	ss := &StorageServer{
		Site:   st,
		Name:   name,
		Server: sv,
		Net:    net,
	}
	ss.Ingest = NewIngest(sv)
	ss.Transport = rpc.NewTransport(net.Sim)
	ss.Transport.SetOutput(ss.Net.ToSwitch)
	st.instrumentUplink(name, net.Port)
	return ss
}

// EnableCM starts the continuous-media serving service over this
// server's array: streams admitted through it hold a per-disk time
// reservation and are read ahead by the round scheduler. Enable it
// after preloading titles — the scheduler's ticker keeps the simulator
// alive from this point on. Idempotent.
func (ss *StorageServer) EnableCM(cfg fileserver.CMConfig) *fileserver.CMService {
	if ss.CM == nil {
		ss.CM = fileserver.NewCMService(ss.Server, cfg)
		ss.Site.instrumentCM(ss.Name, ss.CM)
	}
	return ss.CM
}

// EnableCPU starts the node's protocol-processing CPU: a Nemesis
// kernel under EDF-over-shares where every admitted stream holds a
// per-stream domain. From then on, sessions opened with the node's CPU
// in their spec are admitted against the processor too — the third leg
// of the conjunction. Idempotent.
func (ss *StorageServer) EnableCPU(cfg CPUConfig) *NodeCPU {
	if ss.CPU == nil {
		ss.CPU = NewNodeCPU(ss.Net.Sim, cfg)
		ss.Site.instrumentCPU(ss.Name, ss.CPU)
	}
	return ss.CPU
}

// BindRPC exposes the storage transport on a circuit.
func (ss *StorageServer) BindRPC(vci atm.VCI) {
	ss.Net.Demux.Register(vci, fabric.HandlerFunc(ss.Transport.HandleCell))
}

// RecordStream routes a camera-style stream (data + control circuits)
// into the file server and starts a recorder for it — the file server
// acting as a multimedia device (§2.2).
func (ss *StorageServer) RecordStream(name string, from *Endpoint, dataVCI, ctrlVCI atm.VCI) (*fileserver.Recorder, error) {
	rec, err := ss.Server.NewRecorder(name)
	if err != nil {
		return nil, err
	}
	ss.Site.Patch(from, dataVCI, ss.Net)
	ss.Site.Patch(from, ctrlVCI, ss.Net)
	ss.Ingest.Route(dataVCI, ctrlVCI, rec)
	ss.Net.Demux.Register(dataVCI, ss.Ingest)
	ss.Net.Demux.Register(ctrlVCI, ss.Ingest)
	return rec, nil
}

// StopStream tears down a recording's circuits and ingest routing.
// Recording again on the same circuit pair without stopping the first
// take would add another point-to-multipoint leaf at the switch and
// duplicate every cell into the reassembler.
func (ss *StorageServer) StopStream(from *Endpoint, dataVCI, ctrlVCI atm.VCI) {
	ss.Site.Unpatch(from, dataVCI)
	ss.Site.Unpatch(from, ctrlVCI)
	ss.Ingest.Unroute(dataVCI, ctrlVCI)
	ss.Net.Demux.Unregister(dataVCI)
	ss.Net.Demux.Unregister(ctrlVCI)
}

// UnixNode is the non-real-time control plane of §2.3: ordinary
// applications that create, control and communicate with the real-time
// parts over RPC, but never touch continuous-media data themselves.
type UnixNode struct {
	Site      *Site
	Name      string
	Net       *Endpoint
	Transport *rpc.Transport
	NS        *names.NameSpace
}

// NewUnixNode adds a Unix box to the site.
func (st *Site) NewUnixNode(name string) *UnixNode {
	u := &UnixNode{
		Site: st,
		Name: name,
		Net:  st.Attach(name),
		NS:   names.New(),
	}
	u.Transport = rpc.NewTransport(u.Net.Sim)
	u.Transport.SetOutput(u.Net.ToSwitch)
	return u
}

// BindRPC exposes the Unix node's transport on a circuit.
func (u *UnixNode) BindRPC(vci atm.VCI) {
	u.Net.Demux.Register(vci, fabric.HandlerFunc(u.Transport.HandleCell))
}

// ConnectRPC wires a bidirectional RPC circuit between two endpoints
// and binds both transports, returning the circuit id.
func (st *Site) ConnectRPC(a interface {
	BindRPC(atm.VCI)
}, aEP *Endpoint, b interface {
	BindRPC(atm.VCI)
}, bEP *Endpoint) atm.VCI {
	vci := st.AllocVCI()
	st.PatchBidi(aEP, vci, bEP)
	a.BindRPC(vci)
	b.BindRPC(vci)
	return vci
}
