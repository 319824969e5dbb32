package atm

import (
	"encoding/binary"
	"hash/crc32"
)

// Train describes one AAL5 cell train in flight without materialising
// its cells: the circuit, the UU byte, the cell count and the payload as
// a short head carried by value followed by a borrowed body. Building
// one costs no allocation, no copy and no CRC, and forwarding it through
// a switch is a copy of the descriptor plus one store to VCI — which is
// why fan-out needs no sharing protocol. Real cells exist only where
// something looks at them: Cells materialises them on demand.
//
// Ownership: the head is copied at construction, so the sender may
// rewrite its own head buffer at once (a source restamps every tick
// while earlier frames are still propagating). The body is borrowed and
// must not be written while any copy of the train is in flight.
//
// VCI is exported so a switch can rewrite it; everything else is fixed
// at construction. The zero Train is empty (Len 0).
type Train struct {
	VCI VCI
	UU  byte

	headLen uint8
	n       int // cell count
	head    [PayloadSize]byte
	body    []byte

	// cells, when non-nil, is a pre-materialised train (WrapCells): n is
	// its length and head/body are unused. The cells keep whatever VCI
	// they were segmented under; Cells applies t.VCI on read.
	cells []Cell
}

// NewTrain describes the AAL5 train Segment(vci, uu, head‖body) would
// produce. head (at most one cell payload) is copied; body is borrowed.
func NewTrain(vci VCI, uu byte, head, body []byte) (t Train, err error) {
	if len(head) > PayloadSize {
		panic("atm: train head exceeds one cell payload")
	}
	size := len(head) + len(body)
	if size > MaxFrame {
		return Train{}, ErrFrameTooLarge
	}
	// Fill the result in place: a composite literal would be built in a
	// temporary and copied out.
	t.VCI, t.UU, t.headLen, t.n, t.body = vci, uu, uint8(len(head)), CellsFor(size), body
	copy(t.head[:], head)
	return t, nil
}

// WrapCells describes an already materialised train on one circuit —
// one Segment result or several back to back (a camera's multi-tile
// frame). The train borrows the slice; it must not be written while the
// train is in flight.
func WrapCells(cells []Cell) Train {
	if len(cells) == 0 {
		return Train{}
	}
	return Train{VCI: cells[0].VCI, n: len(cells), cells: cells}
}

// Len reports the number of cells in the train.
func (t *Train) Len() int { return t.n }

// Head returns the leading payload bytes available without
// materialising: the head given to NewTrain, or the first cell's payload
// of a wrapped train. Read-only.
func (t *Train) Head() []byte {
	if t.cells != nil {
		return t.cells[0].Payload[:]
	}
	return t.head[:t.headLen]
}

// Cells materialises the train: for a NewTrain descriptor, exactly the
// cells AAL5 segmentation yields (zero pad, trailer with UU, CPI 0,
// length and CRC-32, PTIUser1 on the last cell); for a wrapped train,
// its cells carrying t.VCI — the slice itself when no switch rewrote
// the circuit, a rewritten copy otherwise. Read-only either way.
func (t *Train) Cells() []Cell {
	if t.cells != nil {
		if t.cells[0].VCI == t.VCI {
			return t.cells
		}
		cells := append([]Cell(nil), t.cells...)
		for i := range cells {
			cells[i].VCI = t.VCI
		}
		return cells
	}
	if t.n == 0 {
		return nil
	}
	cells := make([]Cell, t.n)
	// Lay head‖body across the cell payloads; the pad is the zero bytes
	// make left behind.
	head := t.head[:t.headLen]
	off := copy(cells[0].Payload[:], head)
	body := t.body
	for i := 0; len(body) > 0; i++ {
		body = body[copy(cells[i].Payload[off:], body):]
		off = 0
	}
	size := len(head) + len(t.body)
	last := &cells[t.n-1]
	tr := last.Payload[PayloadSize-trailerSize:]
	tr[0] = t.UU
	tr[1] = 0 // CPI
	binary.BigEndian.PutUint16(tr[2:], uint16(size))
	// CRC over payload, pad and the first four trailer bytes: the body
	// from where it already lies, the rest from the cells just written
	// (the head too: crc32 calls through a function variable, and handing
	// it a pointer into t would force every caller's Train onto the heap).
	crc := crc32.Update(0, crc32.IEEETable, cells[0].Payload[:len(head)])
	crc = crc32.Update(crc, crc32.IEEETable, t.body)
	tail := size % PayloadSize // payload bytes in the cell where the pad starts
	for i := size / PayloadSize; i < t.n; i++ {
		end := PayloadSize
		if i == t.n-1 {
			end -= 4
		}
		crc = crc32.Update(crc, crc32.IEEETable, cells[i].Payload[tail:end])
		tail = 0
	}
	binary.BigEndian.PutUint32(tr[4:], crc)
	for i := range cells {
		cells[i].VCI = t.VCI
	}
	last.PTI = PTIUser1
	return cells
}
