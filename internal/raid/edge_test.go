package raid_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

func TestArrayAccessors(t *testing.T) {
	s := sim.New()
	a := raid.New(s, disk.DefaultParams(), 64<<10, 32)
	if a.SegmentSize() != 64<<10 {
		t.Fatalf("segment size = %d", a.SegmentSize())
	}
	if a.Segments() != 32 {
		t.Fatalf("segments = %d", a.Segments())
	}
	for i := 0; i < raid.DataDisks+1; i++ {
		if a.Disk(i) == nil {
			t.Fatalf("disk %d missing", i)
		}
	}
}

func writeSegErr(t *testing.T, s *sim.Sim, a *raid.Array, seg int64, data []byte) error {
	t.Helper()
	var err error
	fired := false
	a.WriteSegment(seg, data, nil, func(e error) { err = e; fired = true })
	s.Run()
	if !fired {
		t.Fatal("WriteSegment never completed")
	}
	return err
}

func TestWriteSegmentValidation(t *testing.T) {
	s := sim.New()
	a := raid.New(s, disk.DefaultParams(), 64<<10, 8)
	good := make([]byte, 64<<10)
	if err := writeSegErr(t, s, a, -1, good); err == nil {
		t.Fatal("negative segment accepted")
	}
	if err := writeSegErr(t, s, a, 8, good); err == nil {
		t.Fatal("out-of-range segment accepted")
	}
	if err := writeSegErr(t, s, a, 0, make([]byte, 64<<10+1)); err == nil {
		t.Fatal("oversized segment accepted")
	}
	// A short head is a whole segment with its zeros implied.
	if err := writeSegErr(t, s, a, 0, make([]byte, 100)); err != nil {
		t.Fatalf("short head refused: %v", err)
	}
}

func TestDegradedWriteThenRepairedRead(t *testing.T) {
	// A write with one dead member must still be readable: parity
	// covers the missing chunk, and a rebuild restores it physically.
	s := sim.New()
	a := raid.New(s, disk.DefaultParams(), 64<<10, 8)
	a.FailDisk(1)
	data := bytes.Repeat([]byte{0xC3}, 64<<10)
	if err := writeSegErr(t, s, a, 2, data); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	var got []byte
	a.Read(2*int64(64<<10), 64<<10, func(b []byte, err error) {
		if err != nil {
			t.Errorf("degraded read: %v", err)
		}
		got = b
	})
	s.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("degraded write+read corrupted data")
	}
	var rerr error
	a.Rebuild(1, func(e error) { rerr = e })
	s.Run()
	if rerr != nil {
		t.Fatalf("rebuild: %v", rerr)
	}
	a.Read(2*int64(64<<10), 64<<10, func(b []byte, err error) {
		if err != nil {
			t.Errorf("post-rebuild read: %v", err)
		}
		got = b
	})
	s.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("rebuild produced different bytes")
	}
}

func TestDoubleFailureRefused(t *testing.T) {
	s := sim.New()
	a := raid.New(s, disk.DefaultParams(), 64<<10, 8)
	data := make([]byte, 64<<10)
	if err := writeSegErr(t, s, a, 0, data); err != nil {
		t.Fatal(err)
	}
	a.FailDisk(0)
	a.FailDisk(2)
	if err := writeSegErr(t, s, a, 1, data); !errors.Is(err, raid.ErrTooManyFailures) {
		t.Fatalf("double-failure write: %v", err)
	}
	var rerr error
	a.Read(0, 4096, func(_ []byte, e error) { rerr = e })
	s.Run()
	if rerr == nil {
		t.Fatal("double-failure read succeeded")
	}
}
