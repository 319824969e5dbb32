package disk_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

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

func fill(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// A read result is a snapshot: it keeps the bytes it was handed through
// overwrites (whole pages replaced, part pages rebuilt) and a disk swap,
// while fresh reads see the new state.
func TestReadResultIsASnapshot(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 10*MB)
	const off, n = 8 << 10, 40 << 10 // half of page 0, pages 1 and 2
	old := fill(1, n)
	syncWrite(t, s, d, off, old)
	ranges := [][2]int{
		{1 << 10, 4 << 10},   // inside the rebuilt page 0
		{12 << 10, 24 << 10}, // pages 1-2: one write's consecutive pages
		{4 << 10, 16 << 10},  // pages 0-1: gathered
	}
	var held [][]byte
	for _, r := range ranges {
		b := syncRead(t, s, d, off+int64(r[0]), r[1])
		if !bytes.Equal(b, old[r[0]:r[0]+r[1]]) {
			t.Fatalf("read [%d,+%d) mismatch", r[0], r[1])
		}
		held = append(held, b)
	}
	stop := hold(t, held...)
	defer stop()

	fresh := fill(2, n)
	syncWrite(t, s, d, off, fresh)
	syncWrite(t, s, d, off+100, fresh[100:200]) // a part-page write over an installed page
	if got := syncRead(t, s, d, off, n); !bytes.Equal(got, fresh) {
		t.Fatal("read after overwrite does not see the new bytes")
	}
	d.Fail()
	d.Repair()
	if got := syncRead(t, s, d, off, n); !bytes.Equal(got, make([]byte, n)) {
		t.Fatal("repaired disk is not blank")
	}
}

// Never-written ranges read as zeros, alone and beside written bytes,
// up to the last byte of a disk that is not a whole number of pages.
func TestUnwrittenReadsAsZeros(t *testing.T) {
	s := sim.New()
	const size = 100<<10 + 123
	d := disk.New(s, disk.DefaultParams(), size)
	if got := syncRead(t, s, d, 0, size); !bytes.Equal(got, make([]byte, size)) {
		t.Fatal("blank disk does not read as zeros")
	}
	syncWrite(t, s, d, size-50, fill(3, 50))
	want := append(make([]byte, 30<<10), fill(3, 50)...)
	if got := syncRead(t, s, d, size-50-30<<10, len(want)); !bytes.Equal(got, want) {
		t.Fatal("hole beside written bytes does not read as zeros")
	}
	if got := syncRead(t, s, d, size, 0); len(got) != 0 {
		t.Fatalf("empty read at the end returned %d bytes", len(got))
	}
}

// A read inside one write's pages queues a request and a completion
// event and nothing else: no payload buffer. A disk's image costs its
// page table until something is written.
func TestReadAllocatesNoPayload(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), 10*MB)
	syncWrite(t, s, d, 0, fill(4, 64<<10))
	done := func([]byte, error) {}
	for _, r := range [][2]int{{4 << 10, 8 << 10}, {4 << 10, 48 << 10}} {
		if a := testing.AllocsPerRun(100, func() { d.Read(int64(r[0]), r[1], done); s.Run() }); a > 2 {
			t.Errorf("Read(%d, %d): %v allocations, want <= 2", r[0], r[1], a)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	disk.New(s, disk.DefaultParams(), 512*MB)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*MB {
		t.Errorf("New(512 MB) allocated %d bytes, want a page table, not an image", got)
	}
}
