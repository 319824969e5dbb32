// Package netsig implements the connection-management half of §2.2: the
// "normal mechanism of ATM signalling", performed for most Pegasus
// devices by a management process on the attached workstation rather
// than by the device itself.
//
// Establishing a virtual circuit means: admission-control the requested
// peak cell rate against every output link on the path, allocate a VCI,
// and write the switch routing tables. Tearing it down releases both.
// Admission is what lets the ATM network "provide latency guarantees
// for interactive multimedia data": a link is never committed beyond
// its capacity, so queueing stays bounded.
package netsig

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/atm"
	"repro/internal/fabric"
)

// Signalling errors.
var (
	// ErrAdmission reports a circuit refused for lack of link capacity.
	ErrAdmission = errors.New("netsig: peak rate exceeds link capacity")
	// ErrUplink marks a refusal charged to the sender's uplink budget
	// rather than a leaf's output link. It wraps ErrAdmission, so
	// errors.Is(err, ErrAdmission) still matches; check ErrUplink first
	// to attribute the refusal to the uplink leg.
	ErrUplink = fmt.Errorf("%w (uplink)", ErrAdmission)
	// ErrNoCircuit reports an unknown circuit id.
	ErrNoCircuit = errors.New("netsig: no such circuit")
)

// VCIBase bounds the two VCI ranges of a site: signalled circuits are
// numbered upward from VCIBase+1, and circuits patched by hand (a
// site's static device and RPC circuits) must stay below VCIBase, so the
// two can never name the same circuit on one switch.
const VCIBase atm.VCI = 1000

// Circuit is one established virtual circuit (data or control).
type Circuit struct {
	ID       int
	VCI      atm.VCI
	InPort   int
	OutPorts []int // point-to-multipoint leaves
	PeakRate int64 // bits per second, admission-controlled

	Ctrl bool

	uplinked bool // charged against the input port's uplink budget
}

// Manager is the management process: it owns a switch's routing tables
// and the per-output-port committed rates.
type Manager struct {
	sw        *fabric.Switch
	committed []int64 // per output port, bits/s
	capacity  []int64 // per output port, bits/s

	// Uplink admission (opt-in): the input port's link into the switch
	// is a budget too. A point-to-multipoint circuit crosses it once —
	// the switch, not the sender, fans the cells out — so the charge is
	// per circuit, not per leaf.
	uplink      bool
	committedIn []int64
	capacityIn  []int64

	nextVCI atm.VCI
	nextID  int
	open    map[int]*Circuit

	// Stats
	Established int64
	Refused     int64
	TornDown    int64
	Modified    int64 // in-place rate renegotiations that took effect
}

// NewManager takes control of a switch. linkRate is the capacity of
// every attached output link (per-port overrides via SetPortCapacity).
func NewManager(sw *fabric.Switch, linkRate int64) *Manager {
	m := &Manager{
		sw:          sw,
		committed:   make([]int64, sw.Ports()),
		capacity:    make([]int64, sw.Ports()),
		committedIn: make([]int64, sw.Ports()),
		capacityIn:  make([]int64, sw.Ports()),
		nextVCI:     VCIBase,
		open:        make(map[int]*Circuit),
	}
	for i := range m.capacity {
		m.capacity[i] = linkRate
		m.capacityIn[i] = linkRate
	}
	return m
}

// SetPortCapacity overrides one output port's admission capacity.
func (m *Manager) SetPortCapacity(port int, bits int64) {
	m.capacity[port] = bits
}

// Committed reports the admitted peak rate on an output port.
func (m *Manager) Committed(port int) int64 { return m.committed[port] }

// Capacity reports an output port's admission capacity.
func (m *Manager) Capacity(port int) int64 { return m.capacity[port] }

// EnableUplinkAdmission turns on uplink budgeting: every subsequent
// guaranteed circuit is also admission-controlled against its input
// port's link into the switch. A storage server's uplink carries every
// stream it serves, so a multi-server site must budget it or the
// per-leaf checks will happily promise more than the sender's link
// carries.
func (m *Manager) EnableUplinkAdmission() { m.uplink = true }

// UplinkAdmission reports whether uplink budgeting is on.
func (m *Manager) UplinkAdmission() bool { return m.uplink }

// SetUplinkCapacity overrides one input port's uplink capacity.
func (m *Manager) SetUplinkCapacity(port int, bits int64) {
	m.capacityIn[port] = bits
}

// CommittedUplink reports the admitted peak rate into an input port's
// uplink (always 0 while uplink admission is off).
func (m *Manager) CommittedUplink(port int) int64 { return m.committedIn[port] }

// UplinkCapacity reports an input port's uplink capacity.
func (m *Manager) UplinkCapacity(port int) int64 { return m.capacityIn[port] }

// LinkFits reports whether an output port can take rate more bits/s —
// the link admission rule, committed+rate ≤ capacity, and the only
// place it is written. It holds nothing.
func (m *Manager) LinkFits(port int, rate int64) bool {
	return m.committed[port]+rate <= m.capacity[port]
}

// UplinkFits reports whether an input port's uplink can take rate more
// bits/s — the uplink admission rule, the same test against the input
// port's budget, true while uplink admission is off. It holds nothing.
func (m *Manager) UplinkFits(port int, rate int64) bool {
	return !m.uplink || m.committedIn[port]+rate <= m.capacityIn[port]
}

// admitLinks refuses (ErrAdmission, counted in Refused) when any of
// ports cannot take rate more bits/s, naming the first that cannot.
func (m *Manager) admitLinks(ports []int, rate int64) error {
	for _, p := range ports {
		if !m.LinkFits(p, rate) {
			m.Refused++
			return fmt.Errorf("%w: port %d committed %d + %d > %d",
				ErrAdmission, p, m.committed[p], rate, m.capacity[p])
		}
	}
	return nil
}

// admitUplink refuses (ErrUplink, counted in Refused) when port's
// uplink cannot take rate more bits/s.
func (m *Manager) admitUplink(port int, rate int64) error {
	if m.UplinkFits(port, rate) {
		return nil
	}
	m.Refused++
	return fmt.Errorf("%w: uplink %d committed %d + %d > %d",
		ErrUplink, port, m.committedIn[port], rate, m.capacityIn[port])
}

// Establish sets up a circuit from inPort to one or more output ports
// at the given peak rate, allocating a fresh VCI. Admission: every
// leaf's output link — and, when uplink budgeting is on, the sender's
// link into the switch — must have headroom, the leaves checked first.
// A port named twice as a leaf is refused before anything is charged,
// counted in neither Refused nor Established.
func (m *Manager) Establish(inPort int, outPorts []int, peakRate int64, ctrl bool) (*Circuit, error) {
	if len(outPorts) == 0 {
		return nil, errors.New("netsig: circuit needs at least one leaf")
	}
	if peakRate <= 0 {
		return nil, errors.New("netsig: a circuit needs a positive peak rate")
	}
	for i, p := range outPorts {
		if slices.Contains(outPorts[:i], p) {
			return nil, fmt.Errorf("netsig: port %d is a leaf twice", p)
		}
	}
	if err := m.admitLinks(outPorts, peakRate); err != nil {
		return nil, err
	}
	if err := m.admitUplink(inPort, peakRate); err != nil {
		return nil, err
	}
	if m.uplink {
		m.committedIn[inPort] += peakRate
	}
	for _, p := range outPorts {
		m.committed[p] += peakRate
	}
	m.nextVCI++
	vci := m.nextVCI
	for _, p := range outPorts {
		m.sw.Route(inPort, vci, p, vci)
	}
	m.nextID++
	c := &Circuit{
		ID: m.nextID, VCI: vci, InPort: inPort,
		OutPorts: append([]int(nil), outPorts...),
		PeakRate: peakRate, Ctrl: ctrl, uplinked: m.uplink,
	}
	m.open[c.ID] = c
	m.Established++
	return c, nil
}

// EstablishTree sets up a multicast tree: one circuit from inPort with
// no leaves yet. The source's uplink (when uplink budgeting is on) is
// charged once, here — the switch replicates cells, so the tree crosses
// the sender's link exactly once no matter how many branches JoinTree
// later grows. Until the first join the tree forwards nowhere (cells
// count as unrouted), which is exactly a broadcast with no viewers.
func (m *Manager) EstablishTree(inPort int, peakRate int64) (*Circuit, error) {
	if peakRate <= 0 {
		return nil, errors.New("netsig: a multicast tree needs a positive peak rate")
	}
	if err := m.admitUplink(inPort, peakRate); err != nil {
		return nil, err
	}
	if m.uplink {
		m.committedIn[inPort] += peakRate
	}
	m.nextVCI++
	m.nextID++
	c := &Circuit{
		ID: m.nextID, VCI: m.nextVCI, InPort: inPort,
		PeakRate: peakRate, uplinked: m.uplink,
	}
	m.open[c.ID] = c
	m.Established++
	return c, nil
}

// JoinTree grows a multicast tree (or any circuit) by one branch: the
// new leaf's output link is admission-controlled at the circuit's
// current rate (the uplink is not touched — it was charged once when
// the circuit was established) and the switch route is installed. A
// port can carry at most one branch per tree: viewers behind an
// already-joined port share its cells for free, so a duplicate join is
// the caller's bookkeeping bug, not an admission question. Rollback is
// trivial — a refused join holds nothing.
func (m *Manager) JoinTree(id, outPort int) error {
	c, ok := m.open[id]
	if !ok {
		return ErrNoCircuit
	}
	for _, p := range c.OutPorts {
		if p == outPort {
			return fmt.Errorf("netsig: port %d is already a branch of tree %d", outPort, id)
		}
	}
	if err := m.admitLinks([]int{outPort}, c.PeakRate); err != nil {
		return err
	}
	m.committed[outPort] += c.PeakRate
	m.sw.Route(c.InPort, c.VCI, outPort, c.VCI)
	c.OutPorts = append(c.OutPorts, outPort)
	return nil
}

// LeaveTree prunes one branch: the leaf's switch route is removed (the
// surviving branches keep forwarding, cells already switched still
// arrive) and its output-link budget is released. The tree itself stays
// open even with zero branches; TearDown ends it.
func (m *Manager) LeaveTree(id, outPort int) error {
	c, ok := m.open[id]
	if !ok {
		return ErrNoCircuit
	}
	for i, p := range c.OutPorts {
		if p != outPort {
			continue
		}
		m.sw.UnrouteLeaf(c.InPort, c.VCI, outPort, c.VCI)
		m.committed[outPort] -= c.PeakRate
		c.OutPorts = append(c.OutPorts[:i], c.OutPorts[i+1:]...)
		return nil
	}
	return fmt.Errorf("netsig: port %d is not a branch of tree %d", outPort, id)
}

// EstablishPair sets up the §2.2 device pattern: a data circuit plus
// its low-bandwidth control circuit between the same ports. ctrlRate
// is nominal (control streams are tiny); it is admitted too.
func (m *Manager) EstablishPair(inPort int, outPorts []int, dataRate, ctrlRate int64) (data, ctrl *Circuit, err error) {
	data, err = m.Establish(inPort, outPorts, dataRate, false)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err = m.Establish(inPort, outPorts, ctrlRate, true)
	if err != nil {
		m.TearDown(data.ID)
		return nil, nil, err
	}
	return data, ctrl, nil
}

// ModifyRate renegotiates an established circuit's admitted peak rate
// in place: no teardown, no re-route, no VCI change, so there is no
// instant at which the stream is unprotected or the budget double
// counts it. Shrinking always succeeds and releases the difference
// immediately. Growing is admission-controlled against every leaf's
// output link and — when the circuit was charged against its sender's
// uplink — that uplink too; a refusal (ErrAdmission) leaves the circuit
// and every budget exactly as they were. The new rate must be positive:
// a circuit leaves its reservation only by teardown.
func (m *Manager) ModifyRate(id int, newRate int64) error {
	c, ok := m.open[id]
	if !ok {
		return ErrNoCircuit
	}
	if newRate <= 0 {
		return fmt.Errorf("netsig: circuit %d: renegotiated rate must be positive, got %d", id, newRate)
	}
	delta := newRate - c.PeakRate
	if delta == 0 {
		return nil
	}
	if delta > 0 {
		if err := m.admitLinks(c.OutPorts, delta); err != nil {
			return err
		}
		if c.uplinked {
			if err := m.admitUplink(c.InPort, delta); err != nil {
				return err
			}
		}
	}
	for _, p := range c.OutPorts {
		m.committed[p] += delta
	}
	if c.uplinked {
		m.committedIn[c.InPort] += delta
	}
	c.PeakRate = newRate
	m.Modified++
	return nil
}

// TearDown removes a circuit and releases its admitted rate.
func (m *Manager) TearDown(id int) error {
	c, ok := m.open[id]
	if !ok {
		return ErrNoCircuit
	}
	delete(m.open, id)
	m.sw.Unroute(c.InPort, c.VCI)
	for _, p := range c.OutPorts {
		m.committed[p] -= c.PeakRate
	}
	if c.uplinked {
		m.committedIn[c.InPort] -= c.PeakRate
	}
	m.TornDown++
	return nil
}

// Open reports currently established circuits.
func (m *Manager) Open() int { return len(m.open) }
