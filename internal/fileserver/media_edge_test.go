package fileserver_test

import (
	"errors"
	"testing"

	"repro/internal/fileserver"
	"repro/internal/sim"
)

// buildStream records three fake frames through the Recorder API.
func buildStream(t *testing.T, s *sim.Sim, sv *fileserver.Server, name string) *fileserver.Recorder {
	t.Helper()
	rec, err := sv.NewRecorder(name)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := rec.Append(pat(byte(i+1), 500)); err != nil {
			t.Fatal(err)
		}
		rec.MarkFrame(uint32(i), uint64(i)*uint64(40*sim.Millisecond))
	}
	if err := rec.Finalize(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func openStream(t *testing.T, s *sim.Sim, sv *fileserver.Server, name string) (*fileserver.Player, error) {
	t.Helper()
	var p *fileserver.Player
	var err error
	fired := false
	sv.OpenStream(name, func(pl *fileserver.Player, e error) { p, err, fired = pl, e, true })
	s.Run()
	if !fired {
		t.Fatal("OpenStream never completed")
	}
	return p, err
}

func TestRecorderDuplicateNameRejected(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	buildStream(t, s, sv, "/vod/a")
	if _, err := sv.NewRecorder("/vod/a"); !errors.Is(err, fileserver.ErrExists) {
		t.Fatalf("duplicate recorder: %v", err)
	}
}

func TestPlayerEntryAndBounds(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	buildStream(t, s, sv, "/vod/a")
	p, err := openStream(t, s, sv, "/vod/a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Frames() != 3 {
		t.Fatalf("frames = %d", p.Frames())
	}
	e := p.Entry(1)
	if e.Seq != 1 {
		t.Fatalf("entry 1 seq = %d", e.Seq)
	}
	var rerr error
	p.ReadFrame(-1, func(_ []byte, e error) { rerr = e })
	s.Run()
	if rerr == nil {
		t.Fatal("negative frame index accepted")
	}
	p.ReadFrame(99, func(_ []byte, e error) { rerr = e })
	s.Run()
	if rerr == nil {
		t.Fatal("out-of-range frame index accepted")
	}
}

func TestOpenStreamErrors(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 64)
	if _, err := openStream(t, s, sv, "/ghost"); !errors.Is(err, fileserver.ErrNoIndex) {
		t.Fatalf("missing stream: %v", err)
	}
	// A plain file with no index is not a stream.
	if err := sv.Create("/plain", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/plain", 0, pat(1, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := openStream(t, s, sv, "/plain"); !errors.Is(err, fileserver.ErrNoIndex) {
		t.Fatalf("unindexed file opened as stream: %v", err)
	}
}

func TestMigratorSizeAndCounts(t *testing.T) {
	s, sv, m, _ := newMigrated(t)
	if err := sv.Create("/f", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/f", 0, pat(1, 5000)); err != nil {
		t.Fatal(err)
	}
	flush(t, s, sv)
	if sz, err := m.Size("/f"); err != nil || sz != 5000 {
		t.Fatalf("resident Size = %d, %v", sz, err)
	}
	if _, err := m.Size("/nope"); err == nil {
		t.Fatal("Size of missing path succeeded")
	}
	archive(t, s, m, "/f")
	if m.ArchivedFiles() != 1 {
		t.Fatalf("archived files = %d", m.ArchivedFiles())
	}
	if sz, err := m.Size("/f"); err != nil || sz != 5000 {
		t.Fatalf("archived Size = %d, %v", sz, err)
	}
}

func TestDirCachePolicyStrings(t *testing.T) {
	cases := map[fileserver.DirCachePolicy]string{
		fileserver.NoDirCache:       "no cache",
		fileserver.DataDirCache:     "data cache",
		fileserver.SemanticDirCache: "semantic cache",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", p, got, want)
		}
	}
}
