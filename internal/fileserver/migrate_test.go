package fileserver_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fileserver"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/tertiary"
)

func newMigrated(t *testing.T) (*sim.Sim, *fileserver.Server, *fileserver.Migrator, *tertiary.Library) {
	t.Helper()
	s := sim.New()
	sv := newServer(s, 64)
	p := tertiary.DefaultParams()
	p.Tapes = 4
	p.TapeCapacity = 8 << 20
	lib := tertiary.New(s, p)
	return s, sv, fileserver.NewMigrator(s, sv, lib), lib
}

func archive(t *testing.T, s *sim.Sim, m *fileserver.Migrator, path string) {
	t.Helper()
	var err error
	done := false
	m.Archive(path, func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("Archive(%s): done=%v err=%v", path, done, err)
	}
}

func recallFile(t *testing.T, s *sim.Sim, m *fileserver.Migrator, path string) {
	t.Helper()
	var err error
	done := false
	m.Recall(path, func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("Recall(%s): done=%v err=%v", path, done, err)
	}
}

func TestMigrateArchiveRecallRoundTrip(t *testing.T) {
	s, sv, m, lib := newMigrated(t)
	data := pat(3, 100_000)
	if err := sv.Create("/v", true); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/v", 0, data); err != nil {
		t.Fatal(err)
	}
	flush(t, s, sv)

	archive(t, s, m, "/v")
	if sv.Exists("/v") {
		t.Fatal("disk copy survived archiving")
	}
	if !m.Archived("/v") || !lib.Has("/v") {
		t.Fatal("archive catalogue incomplete")
	}
	if sz, err := m.Size("/v"); err != nil || sz != int64(len(data)) {
		t.Fatalf("archived Size = %d, %v", sz, err)
	}

	recallFile(t, s, m, "/v")
	if m.Archived("/v") || lib.Has("/v") {
		t.Fatal("tape copy not retired after recall")
	}
	if got := srvRead(t, s, sv, "/v", 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("recalled bytes differ")
	}
}

func TestMigrateArchiveFreesLogSpace(t *testing.T) {
	s, sv, m, _ := newMigrated(t)
	data := pat(1, 3*segSize)
	if err := sv.Create("/big", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/big", 0, data); err != nil {
		t.Fatal(err)
	}
	flush(t, s, sv)
	garbageBefore := sv.FS().Stats.GarbageEntries
	archive(t, s, m, "/big")
	if sv.FS().Stats.GarbageEntries <= garbageBefore {
		t.Fatal("archiving created no garbage entries; the cleaner has nothing to reclaim")
	}
}

func TestMigrateReadThroughRecalls(t *testing.T) {
	s, sv, m, _ := newMigrated(t)
	data := pat(5, 20_000)
	if err := sv.Create("/cold", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/cold", 0, data); err != nil {
		t.Fatal(err)
	}
	flush(t, s, sv)
	archive(t, s, m, "/cold")

	var got []byte
	var err error
	m.Read("/cold", 100, 200, func(b []byte, e error) { got, err = b, e })
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[100:300]) {
		t.Fatal("read-through returned wrong bytes")
	}
	if m.Stats.ReadThroughs != 1 {
		t.Fatalf("read-throughs = %d", m.Stats.ReadThroughs)
	}
	// Now resident: a second read goes straight to disk.
	m.Read("/cold", 0, 100, func([]byte, error) {})
	s.Run()
	if m.Stats.ReadThroughs != 1 {
		t.Fatal("resident read triggered another recall")
	}
}

func TestMigrateArchiveWithBufferedWrites(t *testing.T) {
	// Archiving must capture writes still in the 30 s window.
	s, sv, m, _ := newMigrated(t)
	sv.WriteDelay = 30 * sim.Second
	if err := sv.Create("/buf", false); err != nil {
		t.Fatal(err)
	}
	data := pat(8, 10_000)
	if err := sv.Write("/buf", 0, data); err != nil {
		t.Fatal(err)
	}
	archive(t, s, m, "/buf") // no flush: content only in server memory
	recallFile(t, s, m, "/buf")
	if got := srvRead(t, s, sv, "/buf", 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("buffered content lost through archive/recall")
	}
}

func TestMigrateErrors(t *testing.T) {
	s, sv, m, _ := newMigrated(t)
	var err error
	m.Archive("/ghost", func(e error) { err = e })
	s.Run()
	if !errors.Is(err, fileserver.ErrNotFound) {
		t.Fatalf("archive of missing path: %v", err)
	}
	m.Recall("/ghost", func(e error) { err = e })
	s.Run()
	if !errors.Is(err, fileserver.ErrNotFound) {
		t.Fatalf("recall of unarchived path: %v", err)
	}
	if err := sv.Create("/x", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/x", 0, pat(1, 100)); err != nil {
		t.Fatal(err)
	}
	flush(t, s, sv)
	archive(t, s, m, "/x")
	m.Archive("/x", func(e error) { err = e })
	s.Run()
	if !errors.Is(err, fileserver.ErrExists) {
		t.Fatalf("double archive: %v", err)
	}
}

func TestMigrateSurvivesServerCrash(t *testing.T) {
	// The tape tier is a separate component: a server crash must not
	// touch archived data, and recalls work once the server returns.
	s, sv, m, _ := newMigrated(t)
	data := pat(2, 30_000)
	if err := sv.Create("/v", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/v", 0, data); err != nil {
		t.Fatal(err)
	}
	flush(t, s, sv)
	archive(t, s, m, "/v")

	sv.Crash()
	srvRecover(t, s, sv)
	recallFile(t, s, m, "/v")
	if got := srvRead(t, s, sv, "/v", 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("archived file damaged by server crash")
	}
}

func TestMigrateStoreCapacityScaling(t *testing.T) {
	// Total stored data can exceed the disk array by migrating cold
	// files — the §5 size story in miniature.
	s, sv, m, lib := newMigrated(t)
	diskBytes := sv.FS().Array().Segments() * int64(segSize)
	var total int64
	for i := 0; total < 3*diskBytes; i++ {
		path := fmt.Sprintf("/rec%d", i)
		data := pat(byte(i), 2*segSize)
		if err := sv.Create(path, true); err != nil {
			t.Fatal(err)
		}
		if err := sv.Write(path, 0, data); err != nil {
			t.Fatal(err)
		}
		flush(t, s, sv)
		archive(t, s, m, path)
		total += int64(len(data))
		if sv.FS().FreeSegments() < 16 {
			// The migration loop leans on the cleaner: archived files'
			// segments are garbage until reclaimed.
			sv.FS().CleanPegasus(func(_ lfs.CleanStats, err error) {
				if err != nil {
					t.Errorf("clean: %v", err)
				}
			})
			s.Run()
		}
	}
	if m.ArchivedBytes() < 3*diskBytes {
		t.Fatalf("archived %d bytes, want >= %d", m.ArchivedBytes(), 3*diskBytes)
	}
	if lib.StoredBytes() != m.ArchivedBytes() {
		t.Fatalf("library holds %d, catalogue says %d", lib.StoredBytes(), m.ArchivedBytes())
	}
}

// The storage tiers together: a UPS-protected server flushes a file, the
// migrator archives it to tape, and a semantic directory cache records
// an entry.
func TestStorageHierarchy(t *testing.T) {
	s, sv, mig, _ := newMigrated(t)
	sv.Power = fileserver.UPS
	if err := sv.Create("/f", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/f", 0, make([]byte, 10_000)); err != nil {
		t.Fatal(err)
	}
	flush(t, s, sv)
	archive(t, s, mig, "/f")
	if !mig.Archived("/f") {
		t.Fatal("/f not archived")
	}
	ds := fileserver.NewDirServer(s)
	if err := ds.MkDir("/d"); err != nil {
		t.Fatal(err)
	}
	dirInsert(t, s, fileserver.NewDirClient(s, ds, fileserver.SemanticDirCache), "/d", "x", 100)
}
