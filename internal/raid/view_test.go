package raid_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/raid"
	"repro/internal/sim"
)

const chunk = segSize / raid.DataDisks

func readRange(t *testing.T, s *sim.Sim, a *raid.Array, off int64, n int) []byte {
	t.Helper()
	var out []byte
	var err error
	a.Read(off, n, func(b []byte, e error) { out, err = b, e })
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hold watches read results from another goroutine until the returned
// stop is called. A read result may be a view of the store, so a write
// to the memory behind it is a data race (-race reports it), and a
// changed byte fails the test either way.
func hold(t *testing.T, views ...[]byte) (stop func()) {
	want := make([][]byte, len(views))
	for i, v := range views {
		want[i] = bytes.Clone(v)
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for last := false; !last; runtime.Gosched() {
			select {
			case <-quit:
				last = true // one more look after the writer has finished
			default:
			}
			for i, v := range views {
				if !bytes.Equal(v, want[i]) {
					t.Errorf("held read result %d changed", i)
					return
				}
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// Read results — the disk's view of one chunk, a join across chunks, a
// whole segment — keep their bytes while the segment is rewritten and
// while the disk they came from fails, is swapped and is rebuilt; fresh
// reads see the new state.
func TestReadResultIsASnapshot(t *testing.T) {
	s := sim.New()
	a := newArray(s, 4)
	old := fillSegment(1)
	writeSeg(t, s, a, 1, old)
	inChunk := readRange(t, s, a, segSize+100, 32<<10)
	joined := readRange(t, s, a, segSize+chunk-100, 200)
	if !bytes.Equal(inChunk, old[100:100+32<<10]) || !bytes.Equal(joined, old[chunk-100:chunk+100]) {
		t.Fatal("read mismatch")
	}
	stop := hold(t, inChunk, joined, readSeg(t, s, a, 1))
	defer stop()

	fresh := fillSegment(2)
	writeSeg(t, s, a, 1, fresh)
	a.FailDisk(0)
	if got := readRange(t, s, a, segSize+100, 32<<10); !bytes.Equal(got, fresh[100:100+32<<10]) {
		t.Fatal("degraded read after rewrite does not see the new bytes")
	}
	var rerr error
	a.Rebuild(0, func(e error) { rerr = e })
	s.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if got := readSeg(t, s, a, 1); !bytes.Equal(got, fresh) {
		t.Fatal("rebuilt segment does not hold the new bytes")
	}
	if got := readSeg(t, s, a, 3); !bytes.Equal(got, make([]byte, segSize)) {
		t.Fatal("never-written segment does not read as zeros")
	}
}

// Bytes the array assembles itself — parity reconstruction, a whole
// segment — belong to the caller: scribbling on them changes nothing
// on the disks.
func TestReconstructedReadsAreOwned(t *testing.T) {
	s := sim.New()
	a := newArray(s, 2)
	data := fillSegment(9)
	writeSeg(t, s, a, 0, data)
	a.FailDisk(1)
	for i := 0; i < 2; i++ {
		b := readRange(t, s, a, chunk+10, 1000) // on the failed disk
		seg := readSeg(t, s, a, 0)
		if !bytes.Equal(b, data[chunk+10:chunk+1010]) || !bytes.Equal(seg, data) {
			t.Fatalf("pass %d: degraded read mismatch", i)
		}
		clear(b)
		clear(seg)
	}
}

// A read inside one healthy chunk hands up the disk's view (a queued
// request and its completion event, no payload buffer); one across
// chunks allocates exactly the buffer it joins them in.
func TestReadAllocations(t *testing.T) {
	s := sim.New()
	a := newArray(s, 2)
	writeSeg(t, s, a, 1, fillSegment(5))
	done := func([]byte, error) {}
	if n := testing.AllocsPerRun(100, func() { a.Read(segSize+100, 100<<10, done); s.Run() }); n > 2 {
		t.Errorf("single-chunk read: %v allocations, want <= 2", n)
	}
	const span = 300 << 10 // chunks 0-1 of the segment
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		a.Read(segSize+100, span, done)
		s.Run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per < span || per >= 2*span {
		t.Errorf("chunk-crossing read of %d bytes allocated %d, want one payload buffer", span, per)
	}
}
