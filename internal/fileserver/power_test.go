package fileserver_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fileserver"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// powerFail drives a PowerFail to completion.
func powerFail(t *testing.T, s *sim.Sim, sv *fileserver.Server) {
	t.Helper()
	var err error
	done := false
	sv.PowerFail(func(e error) { err, done = e, true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("PowerFail: done=%v err=%v", done, err)
	}
}

// recoverPower drives RecoverFromPower to completion.
func recoverPower(t *testing.T, s *sim.Sim, sv *fileserver.Server) {
	t.Helper()
	var err error
	done := false
	sv.RecoverFromPower(func(e error) { err = e; done = true })
	s.Run()
	if !done || err != nil {
		t.Fatalf("RecoverFromPower: done=%v err=%v", done, err)
	}
}

// outageScenario writes one durable file and one still-buffered file,
// then fails the power and recovers. It returns the post-recovery
// content of each.
func outageScenario(t *testing.T, mode fileserver.PowerProtection) (durable, buffered []byte, sv *fileserver.Server) {
	t.Helper()
	s := sim.New()
	sv = newServer(s, 32)
	sv.WriteDelay = 30 * sim.Second
	sv.Power = mode

	old := pat(7, 4000)
	if err := sv.Create("/old", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/old", 0, old); err != nil {
		t.Fatal(err)
	}
	flush(t, s, sv) // /old is durably logged

	fresh := pat(9, 4000)
	if err := sv.Create("/fresh", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/fresh", 0, fresh); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Second) // well inside the 30 s window: still buffered

	powerFail(t, s, sv)
	recoverPower(t, s, sv)

	if sv.Exists("/old") {
		durable = srvRead(t, s, sv, "/old", 0, len(old))
	}
	if sv.Exists("/fresh") {
		buffered = srvRead(t, s, sv, "/fresh", 0, len(fresh))
	}
	return durable, buffered, sv
}

func TestPowerFailUnprotectedLosesBufferedWrites(t *testing.T) {
	durable, buffered, sv := outageScenario(t, fileserver.Unprotected)
	if !bytes.Equal(durable, pat(7, 4000)) {
		t.Fatal("durably logged file damaged by power failure")
	}
	if bytes.Equal(buffered, pat(9, 4000)) {
		t.Fatal("unprotected server kept its buffered writes; they were volatile")
	}
	if sv.Stats.PowerFailures != 1 {
		t.Fatalf("power failures = %d", sv.Stats.PowerFailures)
	}
}

func TestPowerFailUPSFlushesBeforeHalt(t *testing.T) {
	durable, buffered, _ := outageScenario(t, fileserver.UPS)
	if !bytes.Equal(durable, pat(7, 4000)) {
		t.Fatal("durable file damaged")
	}
	if !bytes.Equal(buffered, pat(9, 4000)) {
		t.Fatal("UPS server lost buffered writes; the emergency flush should have saved them")
	}
}

func TestPowerFailBatteryBackedReplays(t *testing.T) {
	durable, buffered, sv := outageScenario(t, fileserver.BatteryBacked)
	if !bytes.Equal(durable, pat(7, 4000)) {
		t.Fatal("durable file damaged")
	}
	if !bytes.Equal(buffered, pat(9, 4000)) {
		t.Fatal("battery-backed server lost its preserved buffers")
	}
	if sv.Stats.NVRAMReplayed != 4000 {
		t.Fatalf("NVRAM replayed %d bytes, want 4000", sv.Stats.NVRAMReplayed)
	}
}

func TestPowerFailBatteryPreservesOverwriteOrder(t *testing.T) {
	// An overwrite inside the window must come back with the newest data.
	s := sim.New()
	sv := newServer(s, 32)
	sv.WriteDelay = 30 * sim.Second
	sv.Power = fileserver.BatteryBacked
	if err := sv.Create("/f", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/f", 0, pat(1, 2000)); err != nil {
		t.Fatal(err)
	}
	newest := pat(5, 1000)
	if err := sv.Write("/f", 500, newest); err != nil {
		t.Fatal(err)
	}
	powerFail(t, s, sv)
	recoverPower(t, s, sv)
	got := srvRead(t, s, sv, "/f", 500, 1000)
	if !bytes.Equal(got, newest) {
		t.Fatal("overwrite lost its order through the battery snapshot")
	}
}

func TestPowerFailUPSWithNothingBuffered(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 32)
	sv.Power = fileserver.UPS
	if err := sv.Create("/f", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/f", 0, pat(3, 100)); err != nil {
		t.Fatal(err)
	}
	flush(t, s, sv)
	powerFail(t, s, sv)
	recoverPower(t, s, sv)
	if got := srvRead(t, s, sv, "/f", 0, 100); !bytes.Equal(got, pat(3, 100)) {
		t.Fatal("idle UPS failure damaged a durable file")
	}
}

// A UPS server whose log cannot hold its buffered writes (the geometry
// of TestFlushReportsWhatItCouldNotLog) halts with those writes lost,
// and its power failure says so instead of reporting a clean halt.
func TestPowerFailUPSReportsFailedFlush(t *testing.T) {
	s := sim.New()
	sv := newServer(s, 6) // four 64 KiB log segments under 1.25 MiB of writes
	sv.WriteDelay = sim.Second
	sv.Power = fileserver.UPS
	if err := sv.Create("/big", false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := sv.Write("/big", int64(i)*32<<10, pat(byte(i), 32<<10)); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	done := false
	sv.PowerFail(func(e error) { err, done = e, true })
	s.Run()
	if !done || !errors.Is(err, lfs.ErrNoSpace) {
		t.Fatalf("PowerFail done=%v err=%v, want ErrNoSpace", done, err)
	}
}

func TestPowerFailRepeatedOutages(t *testing.T) {
	// Two outages back to back: battery state must not leak between them.
	s := sim.New()
	sv := newServer(s, 32)
	sv.WriteDelay = 30 * sim.Second
	sv.Power = fileserver.BatteryBacked
	if err := sv.Create("/a", false); err != nil {
		t.Fatal(err)
	}
	if err := sv.Write("/a", 0, pat(1, 1000)); err != nil {
		t.Fatal(err)
	}
	powerFail(t, s, sv)
	recoverPower(t, s, sv)
	powerFail(t, s, sv) // nothing new buffered this time
	recoverPower(t, s, sv)
	if got := srvRead(t, s, sv, "/a", 0, 1000); !bytes.Equal(got, pat(1, 1000)) {
		t.Fatal("file lost across repeated outages")
	}
	if sv.Stats.PowerFailures != 2 {
		t.Fatalf("power failures = %d", sv.Stats.PowerFailures)
	}
}

func TestPowerProtectionStrings(t *testing.T) {
	cases := map[fileserver.PowerProtection]string{
		fileserver.Unprotected:   "unprotected",
		fileserver.UPS:           "UPS",
		fileserver.BatteryBacked: "battery-backed RAM",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", mode, got, want)
		}
	}
}
