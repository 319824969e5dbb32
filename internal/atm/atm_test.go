package atm

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestCellMarshalRoundTrip(t *testing.T) {
	c := Cell{GFC: 0x5, VPI: 0xAB, VCI: 0x0FED, PTI: PTIUser1, CLP: true}
	for i := range c.Payload {
		c.Payload[i] = byte(i)
	}
	w := c.Marshal()
	got, err := Unmarshal(w[:])
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got != c {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestCellHECDetectsHeaderCorruption(t *testing.T) {
	c := Cell{VCI: 42, PTI: PTIUser0}
	w := c.Marshal()
	for i := 0; i < 4; i++ {
		for bit := 0; bit < 8; bit++ {
			bad := w
			bad[i] ^= 1 << bit
			if _, err := Unmarshal(bad[:]); err != ErrHEC {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrHEC", i, bit, err)
			}
		}
	}
}

func TestUnmarshalRejectsWrongLength(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 52)); err == nil {
		t.Fatal("expected error for short cell")
	}
	if _, err := Unmarshal(make([]byte, 54)); err == nil {
		t.Fatal("expected error for long cell")
	}
}

// Property: cell marshal/unmarshal is the identity on all field values.
func TestCellRoundTripProperty(t *testing.T) {
	f := func(gfc, vpi, pti uint8, vci uint16, clp bool, pay [PayloadSize]byte) bool {
		c := Cell{GFC: gfc & 0x0f, VPI: vpi, VCI: VCI(vci), PTI: pti & 0x07, CLP: clp, Payload: pay}
		w := c.Marshal()
		got, err := Unmarshal(w[:])
		return err == nil && got == c
	}
	if err := quick.Check(f, testutil.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestEndOfFrame(t *testing.T) {
	if (&Cell{PTI: PTIUser0}).EndOfFrame() {
		t.Fatal("PTIUser0 should not be end of frame")
	}
	if !(&Cell{PTI: PTIUser1}).EndOfFrame() {
		t.Fatal("PTIUser1 should be end of frame")
	}
}

func TestSegmentReassembleRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 39, 40, 41, 47, 48, 96, 1000, 65535}
	for _, n := range sizes {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		cells, err := Segment(9, 0x42, payload)
		if err != nil {
			t.Fatalf("Segment(%d): %v", n, err)
		}
		if len(cells) != CellsFor(n) {
			t.Fatalf("Segment(%d) = %d cells, CellsFor = %d", n, len(cells), CellsFor(n))
		}
		r := NewReassembler()
		var frame *Frame
		for i, c := range cells {
			f, err := r.Push(c)
			if err != nil {
				t.Fatalf("Push cell %d: %v", i, err)
			}
			if f != nil && i != len(cells)-1 {
				t.Fatalf("frame completed early at cell %d", i)
			}
			if f != nil {
				frame = f
			}
		}
		if frame == nil {
			t.Fatalf("Segment(%d): no frame reassembled", n)
		}
		if frame.VCI != 9 || frame.UU != 0x42 {
			t.Fatalf("frame meta = VCI %d UU %#x", frame.VCI, frame.UU)
		}
		if !bytes.Equal(frame.Payload, payload) {
			t.Fatalf("Segment(%d): payload mismatch", n)
		}
	}
}

func TestSegmentRejectsOversize(t *testing.T) {
	if _, err := Segment(1, 0, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReassemblerInterleavedVCs(t *testing.T) {
	pa := []byte("stream A: video tiles flowing to the display window")
	pb := []byte("stream B: audio samples with timestamps")
	ca, _ := Segment(1, 0, pa)
	cb, _ := Segment(2, 0, pb)
	r := NewReassembler()
	var got [][]byte
	// Interleave the two circuits cell by cell.
	for i := 0; i < len(ca) || i < len(cb); i++ {
		if i < len(ca) {
			if f, err := r.Push(ca[i]); err != nil {
				t.Fatal(err)
			} else if f != nil {
				got = append(got, f.Payload)
			}
		}
		if i < len(cb) {
			if f, err := r.Push(cb[i]); err != nil {
				t.Fatal(err)
			} else if f != nil {
				got = append(got, f.Payload)
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("reassembled %d frames, want 2", len(got))
	}
	ok := (bytes.Equal(got[0], pa) && bytes.Equal(got[1], pb)) ||
		(bytes.Equal(got[0], pb) && bytes.Equal(got[1], pa))
	if !ok {
		t.Fatal("interleaved reassembly corrupted payloads")
	}
}

func TestReassemblerDetectsPayloadCorruption(t *testing.T) {
	payload := make([]byte, 500)
	for i := range payload {
		payload[i] = byte(i)
	}
	cells, _ := Segment(3, 0, payload)
	// Flip one payload bit in the middle cell.
	cells[len(cells)/2].Payload[10] ^= 0x01
	r := NewReassembler()
	var lastErr error
	for _, c := range cells {
		if _, err := r.Push(c); err != nil {
			lastErr = err
		}
	}
	if lastErr != ErrCRC {
		t.Fatalf("err = %v, want ErrCRC", lastErr)
	}
	if r.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", r.Dropped)
	}
}

func TestReassemblerRuntFrame(t *testing.T) {
	r := NewReassembler()
	// An end-of-frame cell alone still carries 48 bytes, which is >= the
	// trailer, so build a runt by corrupting the length instead: push a
	// single EOF cell whose trailer length claims more than available.
	var c Cell
	c.VCI = 1
	c.PTI = PTIUser1
	c.Payload[41] = 0xFF // length high byte -> huge length
	c.Payload[40+2] = 0xFF
	if _, err := r.Push(c); err == nil {
		t.Fatal("expected error for inconsistent frame")
	}
}

func TestReassemblerLostLastCell(t *testing.T) {
	// If the EOF cell of frame 1 is lost, its cells get merged into the
	// next frame and the CRC must catch it.
	p1 := make([]byte, 100)
	p2 := make([]byte, 100)
	for i := range p1 {
		p1[i], p2[i] = byte(i), byte(200-i)
	}
	c1, _ := Segment(7, 0, p1)
	c2, _ := Segment(7, 0, p2)
	r := NewReassembler()
	var sawErr bool
	for _, c := range c1[:len(c1)-1] { // drop EOF cell
		if _, err := r.Push(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range c2 {
		if _, err := r.Push(c); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("merged frames passed CRC; corruption undetected")
	}
}

// Property: segment/reassemble is the identity for arbitrary payloads.
func TestAAL5RoundTripProperty(t *testing.T) {
	f := func(payload []byte, vci uint16, uu byte) bool {
		if len(payload) > MaxFrame {
			payload = payload[:MaxFrame]
		}
		cells, err := Segment(VCI(vci), uu, payload)
		if err != nil {
			return false
		}
		r := NewReassembler()
		for i, c := range cells {
			f, err := r.Push(c)
			if err != nil {
				return false
			}
			if i == len(cells)-1 {
				return f != nil && bytes.Equal(f.Payload, payload) && f.UU == uu
			}
			if f != nil {
				return false
			}
		}
		return false
	}
	if err := quick.Check(f, testutil.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestCellsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {40, 1}, {41, 2}, {48, 2}, {88, 2}, {89, 3},
	}
	for _, c := range cases {
		if got := CellsFor(c.n); got != c.want {
			t.Errorf("CellsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func BenchmarkSegment1KB(b *testing.B) {
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		if _, err := Segment(1, 0, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReassemble1KB(b *testing.B) {
	payload := make([]byte, 1024)
	cells, _ := Segment(1, 0, payload)
	r := NewReassembler()
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := r.Push(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}
