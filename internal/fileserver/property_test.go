package fileserver_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// Property: whatever the write-behind window and however writes
// overlap, interleave with time passing, and are flushed, a read
// always observes last-write-wins byte-for-byte — the buffered overlay
// and the log must agree with a flat model.
func TestServerLastWriteWinsProperty(t *testing.T) {
	const fileSpan = 16 << 10
	prop := func(seed int64, delayChoice, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		sv := newServer(s, 64)
		delays := []sim.Duration{0, sim.Second, 30 * sim.Second}
		sv.WriteDelay = delays[int(delayChoice)%len(delays)]
		if err := sv.Create("/f", false); err != nil {
			return false
		}
		model := make([]byte, fileSpan)
		size := 0
		for i := 0; i < int(nOps)%40; i++ {
			switch rng.Intn(10) {
			case 0: // let buffered writes drain
				s.RunFor(sim.Duration(rng.Intn(40)) * sim.Second)
			case 1: // force durability
				okc := false
				sv.Flush(func(err error) { okc = err == nil })
				s.Run()
				if !okc {
					return false
				}
			default:
				off := rng.Intn(fileSpan - 1)
				n := rng.Intn(min(2048, fileSpan-off)) + 1
				val := byte(rng.Intn(256))
				data := bytes.Repeat([]byte{val}, n)
				if err := sv.Write("/f", int64(off), data); err != nil {
					return false
				}
				copy(model[off:off+n], data)
				if off+n > size {
					size = off + n
				}
			}
		}
		if size == 0 {
			return true
		}
		var got []byte
		var rerr error
		sv.Read("/f", 0, size, func(b []byte, e error) { got, rerr = b, e })
		s.Run()
		return rerr == nil && bytes.Equal(got, model[:size])
	}
	if err := quick.Check(prop, testutil.Quick(t, 120)); err != nil {
		t.Fatal(err)
	}
}

// Property: the same op sequence with a crash+recover+agent replay in
// the middle still ends with every acknowledged write readable.
func TestServerCrashReplayProperty(t *testing.T) {
	prop := func(seed int64, nFiles uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		sv := newServer(s, 128)
		sv.WriteDelay = 30 * sim.Second
		ag := fileserver.NewAgent(s, sv)
		n := int(nFiles)%12 + 1
		want := map[string][]byte{}
		for i := 0; i < n; i++ {
			name := "/p" + string(rune('a'+i))
			data := bytes.Repeat([]byte{byte(i + 1)}, rng.Intn(6000)+1)
			want[name] = data
			ag.Create(name, false, func(error) {})
			ag.Write(name, 0, data, func(error) {})
		}
		s.RunFor(sim.Second)
		if rng.Intn(2) == 0 {
			okc := false
			sv.Flush(func(err error) { okc = err == nil })
			s.Run()
			if !okc {
				return false
			}
		}
		sv.Crash()
		recOK := false
		sv.Recover(func(err error) { recOK = err == nil })
		s.Run()
		if !recOK {
			return false
		}
		repOK := false
		ag.Replay(func(err error) { repOK = err == nil })
		s.Run()
		if !repOK {
			return false
		}
		for name, data := range want {
			var got []byte
			sv.Read(name, 0, len(data), func(b []byte, e error) { got = b })
			s.Run()
			if !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.Quick(t, 60)); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
