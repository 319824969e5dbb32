package atm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// AAL5 trailer layout (last 8 bytes of the padded CS-PDU):
// UU(1) CPI(1) Length(2, big-endian) CRC-32(4, big-endian, IEEE poly).
const trailerSize = 8

// MaxFrame is the largest AAL5 CS-PDU payload (16-bit length field).
const MaxFrame = 1<<16 - 1

var (
	// ErrFrameTooLarge reports a payload exceeding the AAL5 length field.
	ErrFrameTooLarge = errors.New("atm: AAL5 frame exceeds 65535 bytes")
	// ErrCRC reports a corrupted CS-PDU.
	ErrCRC = errors.New("atm: AAL5 CRC-32 mismatch")
	// ErrLength reports a trailer length inconsistent with the cell count.
	ErrLength = errors.New("atm: AAL5 length field inconsistent")
)

// Segment packs payload into AAL5 cells on the given circuit. The final
// cell carries PTI user-data bit 0 set (end of CS-PDU) and the 8-byte
// trailer; intermediate cells carry PTIUser0. uu is the CPCS user-to-user
// byte, which Pegasus devices use as a small stream tag.
func Segment(vci VCI, uu byte, payload []byte) ([]Cell, error) {
	t, err := NewTrain(vci, uu, nil, payload)
	if err != nil {
		return nil, err
	}
	return t.Cells(), nil
}

// Frame is a reassembled AAL5 CS-PDU.
type Frame struct {
	VCI     VCI
	UU      byte
	Payload []byte
}

// Reassembler rebuilds AAL5 frames from a cell stream, demultiplexing by
// VCI. It mirrors the per-VC reassembly state a real AAL5 SAR keeps.
type Reassembler struct {
	partial map[VCI][]byte
	// Dropped counts CS-PDUs discarded for CRC or length errors.
	Dropped int
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{partial: make(map[VCI][]byte)}
}

// Push adds one cell. When the cell completes a CS-PDU the reassembled
// frame is returned; otherwise the frame pointer is nil. Corrupt frames
// return an error and are dropped (the paper notes AAL5 "offers protection
// against rendering or decompressing faulty tiles" — this is that check).
func (r *Reassembler) Push(c Cell) (*Frame, error) {
	buf := append(r.partial[c.VCI], c.Payload[:]...)
	if !c.EndOfFrame() {
		r.partial[c.VCI] = buf
		return nil, nil
	}
	delete(r.partial, c.VCI)
	if len(buf) < trailerSize {
		r.Dropped++
		return nil, fmt.Errorf("atm: runt AAL5 frame (%d bytes)", len(buf))
	}
	tr := buf[len(buf)-trailerSize:]
	length := int(binary.BigEndian.Uint16(tr[2:]))
	wantCRC := binary.BigEndian.Uint32(tr[4:])
	if crc32.ChecksumIEEE(buf[:len(buf)-4]) != wantCRC {
		r.Dropped++
		return nil, ErrCRC
	}
	// Length must fit in the received cells with less than one cell of pad.
	if length > len(buf)-trailerSize || len(buf)-(length+trailerSize) >= PayloadSize {
		r.Dropped++
		return nil, ErrLength
	}
	return &Frame{VCI: c.VCI, UU: tr[0], Payload: buf[:length]}, nil
}

// CellsFor reports how many cells Segment will produce for n payload bytes.
func CellsFor(n int) int {
	return (n + trailerSize + PayloadSize - 1) / PayloadSize
}
