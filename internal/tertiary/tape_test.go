package tertiary_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/tertiary"
	"repro/internal/testutil"
)

func smallParams() tertiary.Params {
	p := tertiary.DefaultParams()
	p.Tapes = 3
	p.TapeCapacity = 1 << 20
	return p
}

func store(t *testing.T, s *sim.Sim, l *tertiary.Library, id string, data []byte) {
	t.Helper()
	var err error
	done := false
	l.Store(id, data, func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("Store(%s): done=%v err=%v", id, done, err)
	}
}

func recall(t *testing.T, s *sim.Sim, l *tertiary.Library, id string) []byte {
	t.Helper()
	var out []byte
	var err error
	done := false
	l.Recall(id, func(b []byte, e error) { out, err, done = b, e, true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("Recall(%s): done=%v err=%v", id, done, err)
	}
	return out
}

func blob(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*17)
	}
	return b
}

func TestTapeRoundTrip(t *testing.T) {
	s := sim.New()
	l := tertiary.New(s, smallParams())
	data := blob(3, 100_000)
	store(t, s, l, "video1", data)
	if !l.Has("video1") {
		t.Fatal("item not catalogued")
	}
	if got := recall(t, s, l, "video1"); !bytes.Equal(got, data) {
		t.Fatal("recall returned different bytes")
	}
	if sz, err := l.Size("video1"); err != nil || sz != 100_000 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
}

func TestTapeRecallCostsMountWindStream(t *testing.T) {
	s := sim.New()
	p := smallParams()
	l := tertiary.New(s, p)
	data := blob(1, 500_000)
	store(t, s, l, "x", data)

	t0 := s.Now()
	recall(t, s, l, "x")
	elapsed := s.Now() - t0
	stream := sim.Duration(int64(len(data)) * int64(sim.Second) / p.ReadRate)
	// The drive is already on the right tape (no exchange) but the head
	// is past the item (it just wrote it), so a wind + stream is due.
	if elapsed < stream {
		t.Fatalf("recall took %v, less than the streaming time %v", elapsed, stream)
	}
	if l.Stats.Exchanges != 1 { // the initial mount for the store
		t.Fatalf("exchanges = %d, want 1", l.Stats.Exchanges)
	}
}

func TestTapeExchangeWhenSwitchingTapes(t *testing.T) {
	s := sim.New()
	p := smallParams()
	l := tertiary.New(s, p)
	// Two items that cannot share a cartridge.
	big := int(p.TapeCapacity) - 100
	store(t, s, l, "a", blob(1, big))
	store(t, s, l, "b", blob(2, big))
	if l.Stats.Exchanges != 2 {
		t.Fatalf("exchanges = %d, want 2 (one per tape)", l.Stats.Exchanges)
	}
	// Recalling them alternately exchanges every time.
	recall(t, s, l, "a")
	recall(t, s, l, "b")
	recall(t, s, l, "a")
	if l.Stats.Exchanges != 5 {
		t.Fatalf("exchanges = %d, want 5", l.Stats.Exchanges)
	}
}

func TestTapeMountedTapePreferred(t *testing.T) {
	s := sim.New()
	l := tertiary.New(s, smallParams())
	store(t, s, l, "a", blob(1, 1000))
	store(t, s, l, "b", blob(2, 1000))
	if l.Stats.Exchanges != 1 {
		t.Fatalf("exchanges = %d; the second store should reuse the mounted tape", l.Stats.Exchanges)
	}
	// Sequential recall of b right after it was written: no wind needed
	// beyond repositioning from end-of-b... which is where b starts? No:
	// head sits after b, so a wind back is due but no exchange.
	recall(t, s, l, "b")
	if l.Stats.Exchanges != 1 {
		t.Fatalf("recall exchanged tapes needlessly (%d)", l.Stats.Exchanges)
	}
}

func TestTapeCapacityExhaustion(t *testing.T) {
	s := sim.New()
	p := smallParams()
	l := tertiary.New(s, p)
	for i := 0; i < p.Tapes; i++ {
		store(t, s, l, fmt.Sprintf("fill%d", i), blob(byte(i), int(p.TapeCapacity)))
	}
	var err error
	l.Store("overflow", blob(9, 1), func(e error) { err = e })
	s.Run()
	if !errors.Is(err, tertiary.ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if l.StoredBytes() != l.Capacity() {
		t.Fatalf("stored %d of %d", l.StoredBytes(), l.Capacity())
	}
}

func TestTapeDuplicateAndMissing(t *testing.T) {
	s := sim.New()
	l := tertiary.New(s, smallParams())
	store(t, s, l, "x", blob(1, 10))
	var err error
	l.Store("x", blob(2, 10), func(e error) { err = e })
	s.Run()
	if !errors.Is(err, tertiary.ErrDupItem) {
		t.Fatalf("duplicate store: %v", err)
	}
	l.Recall("ghost", func(_ []byte, e error) { err = e })
	s.Run()
	if !errors.Is(err, tertiary.ErrNoItem) {
		t.Fatalf("missing recall: %v", err)
	}
	l.Store("empty", nil, func(e error) { err = e })
	s.Run()
	if !errors.Is(err, tertiary.ErrEmptyItem) {
		t.Fatalf("empty store: %v", err)
	}
}

func TestTapeDeleteForgetsButKeepsSpace(t *testing.T) {
	s := sim.New()
	l := tertiary.New(s, smallParams())
	store(t, s, l, "x", blob(1, 5000))
	used := l.StoredBytes()
	if err := l.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if l.Has("x") {
		t.Fatal("deleted item still catalogued")
	}
	if l.StoredBytes() != used {
		t.Fatal("append-only tape reclaimed space on delete")
	}
	if err := l.Delete("x"); !errors.Is(err, tertiary.ErrNoItem) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestTapeQueuedOperationsSerialise(t *testing.T) {
	// Issue several stores without draining the simulator: they must
	// all complete, in order, through the single drive.
	s := sim.New()
	l := tertiary.New(s, smallParams())
	var order []string
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("it%d", i)
		l.Store(id, blob(byte(i), 1000), func(e error) {
			if e != nil {
				t.Errorf("store %s: %v", id, e)
			}
			order = append(order, id)
		})
	}
	s.Run()
	if len(order) != 5 {
		t.Fatalf("completed %d of 5", len(order))
	}
	for i, id := range order {
		if id != fmt.Sprintf("it%d", i) {
			t.Fatalf("order = %v", order)
		}
	}
}

// Property: any set of items stored then recalled returns the exact
// bytes, regardless of sizes and interleaving.
func TestTapeIntegrityProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		s := sim.New()
		l := tertiary.New(s, smallParams())
		want := map[string][]byte{}
		for i, sz := range sizes {
			n := int(sz)%20000 + 1
			id := fmt.Sprintf("p%d", i)
			data := blob(byte(i*13+1), n)
			want[id] = data
			okc := false
			l.Store(id, data, func(e error) { okc = e == nil })
			s.Run()
			if !okc {
				return false
			}
		}
		for id, data := range want {
			var got []byte
			l.Recall(id, func(b []byte, e error) { got = b })
			s.Run()
			if !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.Quick(t, 50)); err != nil {
		t.Fatal(err)
	}
}
