// Package devices implements the Pegasus ATM multimedia devices (§2.1 of
// the paper): the ATM camera, the ATM display with its window-descriptor
// table, and the DSP/audio node, plus the control protocol (§2.2) that
// pairs every data circuit with a low-bandwidth control circuit used for
// synchronisation and device control.
package devices

import (
	"encoding/binary"
	"errors"

	"repro/internal/atm"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// AAL5 user-to-user tags distinguishing Pegasus stream types.
const (
	UUVideo byte = 1
	UUCtrl  byte = 2
	UUData  byte = 3
)

// CtrlKind enumerates control-stream message types.
type CtrlKind uint8

// Control message kinds (§2.2): Start/Stop drive the device; Sync carries
// source-timestamp synchronisation points; EOF marks the end of a video
// frame (used by frame-buffered rendering and by the file server to build
// its index).
const (
	CtrlStart CtrlKind = 1
	CtrlStop  CtrlKind = 2
	CtrlSync  CtrlKind = 3
	CtrlEOF   CtrlKind = 4
)

// CtrlMsg is one control-stream message.
type CtrlMsg struct {
	Kind      CtrlKind
	Stream    uint8  // source stream tag (camera 0, audio 1, ...)
	Seq       uint32 // frame id or block sequence number
	Timestamp uint64 // source capture time, virtual ns
}

const ctrlMsgSize = 1 + 1 + 4 + 8

// ErrBadCtrl reports a malformed control message.
var ErrBadCtrl = errors.New("devices: malformed control message")

// Encode serialises the message.
func (m *CtrlMsg) Encode() []byte {
	b := make([]byte, ctrlMsgSize)
	b[0] = byte(m.Kind)
	b[1] = m.Stream
	binary.BigEndian.PutUint32(b[2:], m.Seq)
	binary.BigEndian.PutUint64(b[6:], m.Timestamp)
	return b
}

// DecodeCtrl parses a control message.
func DecodeCtrl(b []byte) (CtrlMsg, error) {
	var m CtrlMsg
	if len(b) != ctrlMsgSize {
		return m, ErrBadCtrl
	}
	m.Kind = CtrlKind(b[0])
	m.Stream = b[1]
	m.Seq = binary.BigEndian.Uint32(b[2:])
	m.Timestamp = binary.BigEndian.Uint64(b[6:])
	return m, nil
}

// SendCtrl segments a control message onto a circuit and queues its cells.
func SendCtrl(l *fabric.Link, vci atm.VCI, m CtrlMsg) {
	cells, err := atm.Segment(vci, UUCtrl, m.Encode())
	if err != nil {
		panic("devices: control message cannot exceed one AAL5 frame")
	}
	l.SendBurst(cells)
}

// Demux routes cells to per-circuit handlers; devices use it to separate
// their data and control circuits on a shared input link.
type Demux struct {
	routes map[atm.VCI]fabric.Handler
	// Unrouted counts cells arriving on unknown circuits.
	Unrouted int64
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux { return &Demux{routes: make(map[atm.VCI]fabric.Handler)} }

// Register directs cells on vci to h, replacing any previous handler.
func (d *Demux) Register(vci atm.VCI, h fabric.Handler) { d.routes[vci] = h }

// Unregister removes a circuit's handler.
func (d *Demux) Unregister(vci atm.VCI) { delete(d.routes, vci) }

// HandleCell dispatches by VCI.
func (d *Demux) HandleCell(c atm.Cell) {
	if h, ok := d.routes[c.VCI]; ok {
		h.HandleCell(c)
		return
	}
	d.Unrouted++
}

// HandleBurst dispatches a whole cell train with one lookup (an AAL5
// burst is single-VCI by construction). Burst-aware handlers get the
// train intact; for others its cells are materialised here.
func (d *Demux) HandleBurst(b *fabric.Burst) {
	h, ok := d.routes[b.Train.VCI]
	if !ok {
		d.Unrouted += int64(b.Train.Len())
		return
	}
	if bh, ok := h.(fabric.BurstHandler); ok {
		bh.HandleBurst(b)
		return
	}
	for _, c := range b.Train.Cells() {
		h.HandleCell(c)
	}
}

// Registered reports the number of circuits with handlers — teardown
// tests use it to prove no registrations leak.
func (d *Demux) Registered() int { return len(d.routes) }

// SyncGroup is the playback-control process of §2.2: it merges the
// control streams of several related media streams at the rendering end
// and computes a common playout delay so that data with equal source
// timestamps renders simultaneously.
//
// Usage: during a probe phase call Observe for every arrival, then freeze
// the delay with Commit; RenderTime maps source timestamps to playout
// instants thereafter.
type SyncGroup struct {
	// Margin is added to the worst observed delay when committing.
	Margin sim.Duration

	maxDelay  sim.Duration
	committed bool
	delay     sim.Duration
}

// Observe records the arrival of data captured at srcTS arriving at now.
func (g *SyncGroup) Observe(srcTS uint64, now sim.Time) {
	d := now - sim.Time(srcTS)
	if d < 0 {
		d = 0
	}
	if d > g.maxDelay {
		g.maxDelay = d
	}
}

// Commit freezes the playout delay at worst-observed + Margin.
func (g *SyncGroup) Commit() sim.Duration {
	g.delay = g.maxDelay + g.Margin
	g.committed = true
	return g.delay
}

// Delay reports the committed playout delay (0 before Commit).
func (g *SyncGroup) Delay() sim.Duration {
	if !g.committed {
		return 0
	}
	return g.delay
}

// RenderTime maps a source timestamp to its playout instant. Before
// Commit it returns the source timestamp itself (render-on-arrival).
func (g *SyncGroup) RenderTime(srcTS uint64) sim.Time {
	return sim.Time(srcTS) + g.Delay()
}
