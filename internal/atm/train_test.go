package atm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

// frozenSegment is the AAL5 segmenter as it stood before cell trains
// became lazy — pad into one buffer, trailer, CRC, slice into cells —
// kept verbatim as the reference Train.Cells must reproduce bit for bit.
func frozenSegment(vci VCI, uu byte, payload []byte) []Cell {
	total := len(payload) + trailerSize
	ncells := (total + PayloadSize - 1) / PayloadSize
	padded := make([]byte, ncells*PayloadSize)
	copy(padded, payload)
	tr := padded[len(padded)-trailerSize:]
	tr[0] = uu
	tr[1] = 0 // CPI
	binary.BigEndian.PutUint16(tr[2:], uint16(len(payload)))
	crc := crc32.ChecksumIEEE(padded[:len(padded)-4])
	binary.BigEndian.PutUint32(tr[4:], crc)

	cells := make([]Cell, ncells)
	for i := range cells {
		cells[i].VCI = vci
		cells[i].PTI = PTIUser0
		copy(cells[i].Payload[:], padded[i*PayloadSize:])
	}
	cells[ncells-1].PTI = PTIUser1
	return cells
}

// TestTrainCellsMatchFrozenSegment: for every head/body split of a
// payload, the lazily described train materialises exactly the cells
// the old eager segmenter produced, and they reassemble to the payload.
func TestTrainCellsMatchFrozenSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 39, 40, 41, 47, 48, MaxFrame}
	random := 1000
	if testing.Short() {
		random = 100
	}
	for i := 0; i < random; i++ {
		// Mostly frame-sized, with a tail of long PDUs.
		n := rng.Intn(2048)
		if i%10 == 0 {
			n = rng.Intn(MaxFrame + 1)
		}
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		payload := make([]byte, n)
		rng.Read(payload)
		vci, uu := VCI(rng.Uint32()), byte(rng.Intn(256))
		want := frozenSegment(vci, uu, payload)
		if got, err := Segment(vci, uu, payload); err != nil || !equalCells(got, want) {
			t.Fatalf("len %d: Segment differs from the frozen segmenter (err %v)", n, err)
		}
		for split := 0; split <= PayloadSize && split <= n; split++ {
			tr, err := NewTrain(vci, uu, payload[:split], payload[split:])
			if err != nil {
				t.Fatalf("len %d split %d: %v", n, split, err)
			}
			if tr.Len() != len(want) || tr.Len() != CellsFor(n) {
				t.Fatalf("len %d split %d: Len %d, want %d", n, split, tr.Len(), len(want))
			}
			if !bytes.Equal(tr.Head(), payload[:split]) {
				t.Fatalf("len %d split %d: Head differs from the head given", n, split)
			}
			got := tr.Cells()
			if !equalCells(got, want) {
				t.Fatalf("len %d split %d: cells differ from the frozen segmenter", n, split)
			}
			if split == 0 || split == n || split == PayloadSize {
				reassembles(t, got, vci, uu, payload)
			}
		}
	}
}

func equalCells(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func reassembles(t *testing.T, cells []Cell, vci VCI, uu byte, payload []byte) {
	t.Helper()
	r := NewReassembler()
	for i, c := range cells {
		f, err := r.Push(c)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if (f != nil) != (i == len(cells)-1) {
			t.Fatalf("cell %d of %d: frame completion at the wrong cell", i, len(cells))
		}
		if f != nil && (f.VCI != vci || f.UU != uu || !bytes.Equal(f.Payload, payload)) {
			t.Fatalf("reassembled frame differs: vci %d uu %d len %d", f.VCI, f.UU, len(f.Payload))
		}
	}
}

// TestTrainHeadIsByValue: the sender may rewrite its head buffer the
// moment NewTrain returns; the train keeps the bytes it was given.
func TestTrainHeadIsByValue(t *testing.T) {
	head := []byte("stamp-0001")
	body := []byte("payload body that is borrowed, never written")
	tr, err := NewTrain(9, 1, head, body)
	if err != nil {
		t.Fatal(err)
	}
	want := frozenSegment(9, 1, append(append([]byte(nil), head...), body...))
	copy(head, "STAMP-9999")
	if string(tr.Head()) != "stamp-0001" {
		t.Fatalf("Head = %q after the sender rewrote its buffer", tr.Head())
	}
	if !equalCells(tr.Cells(), want) {
		t.Fatal("cells changed after the sender rewrote its head buffer")
	}
}

// TestTrainVCIRewrite: a forwarding switch stores to VCI and nothing
// else. Lazy trains materialise under the new circuit; wrapped cells
// come back as a rewritten copy, the sender's slice untouched, and as
// the slice itself when nothing was rewritten.
func TestTrainVCIRewrite(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5}, 200)
	lazy, _ := NewTrain(5, 2, payload[:16], payload[16:])
	lazy.VCI = 50
	if !equalCells(lazy.Cells(), frozenSegment(50, 2, payload)) {
		t.Fatal("lazy train did not materialise under the rewritten VCI")
	}

	cells := frozenSegment(5, 2, payload)
	wrapped := WrapCells(cells)
	if wrapped.VCI != 5 || wrapped.Len() != len(cells) || !bytes.Equal(wrapped.Head(), cells[0].Payload[:]) {
		t.Fatalf("WrapCells: VCI %d Len %d", wrapped.VCI, wrapped.Len())
	}
	if got := wrapped.Cells(); &got[0] != &cells[0] {
		t.Fatal("unrewritten wrapped train should hand back the sender's slice")
	}
	leaf := wrapped // fan-out copies the descriptor
	leaf.VCI = 51
	if !equalCells(leaf.Cells(), frozenSegment(51, 2, payload)) {
		t.Fatal("wrapped train did not apply the VCI override on read")
	}
	if !equalCells(cells, frozenSegment(5, 2, payload)) || !equalCells(wrapped.Cells(), cells) {
		t.Fatal("VCI override on one leaf wrote through to the sender's cells")
	}
}

func TestTrainEdges(t *testing.T) {
	if _, err := NewTrain(1, 0, make([]byte, 16), make([]byte, MaxFrame-15)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize train: err = %v, want ErrFrameTooLarge", err)
	}
	var zero Train
	if empty := WrapCells(nil); zero.Len() != 0 || empty.Len() != 0 || zero.Cells() != nil {
		t.Fatal("zero and empty trains must have no cells")
	}
	body := make([]byte, 4784)
	head := make([]byte, 16)
	if n := testing.AllocsPerRun(100, func() {
		tr, _ := NewTrain(3, 1, head, body)
		tr.VCI = 4
		if tr.Len() != 101 || len(tr.Head()) != 16 {
			t.Fatal("bad train")
		}
	}); n != 0 {
		t.Fatalf("describing and rewriting a train allocates %v times, want 0", n)
	}
}

// BenchmarkTrain4800 is what the batched fast path pays per 101-cell
// frame instead of BenchmarkSegment: a descriptor, no cells.
func BenchmarkTrain4800(b *testing.B) {
	head, body := make([]byte, 16), make([]byte, 4784)
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		tr, _ := NewTrain(VCI(i), 0, head, body)
		n += tr.Len()
	}
	if n != 101*b.N {
		b.Fatal("bad cell count")
	}
}
