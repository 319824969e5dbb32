package loadgen

import (
	"testing"

	"repro/internal/sim"
)

// storageCfg is a small, fast from-storage scenario: one server, two
// disk-backed titles, 200 ms rounds.
func storageCfg() Config {
	return Config{
		FromStorage:  true,
		Workstations: 6,
		StreamsPerWS: 2,
		Servers:      1,
		Round:        200 * sim.Millisecond,
		TitleRounds:  3,
		Duration:     1200 * sim.Millisecond,
	}
}

// oversubscribedCfg asks one 1994 array for 30 titles it can carry
// about four of.
func oversubscribedCfg() Config {
	return Config{
		FromStorage:  true,
		Workstations: 4,
		StreamsPerWS: 30,
		Servers:      1,
		FrameBytes:   4800, // 480 KB/s per title: a ~4-title array
		LinkRate:     1_000_000_000,
		Round:        200 * sim.Millisecond,
		TitleRounds:  2,
		Duration:     sim.Second,
	}
}

// TestVoDFromStorageServesFromDisk proves the whole paper pipeline
// holds the guarantee: titles live on the striped array, admission is
// netsig ∧ storage, read-ahead feeds the fabric, and no admitted
// stream ever underruns.
func TestVoDFromStorageServesFromDisk(t *testing.T) {
	sc := Build(storageCfg())
	r := sc.Run()

	if r.StorageStreams != 2 || r.StorageRefused != 0 {
		t.Fatalf("storage streams=%d refused=%d, want 2/0", r.StorageStreams, r.StorageRefused)
	}
	if r.Admitted != 12 {
		t.Fatalf("admitted legs = %d, want 12", r.Admitted)
	}
	if r.Underruns != 0 || r.RoundOverruns != 0 {
		t.Fatalf("underruns=%d overruns=%d, want 0/0", r.Underruns, r.RoundOverruns)
	}
	if r.FramesSent == 0 || r.FramesDelivered <= r.FramesSent {
		t.Fatalf("no fan-out from storage: sent=%d delivered=%d", r.FramesSent, r.FramesDelivered)
	}
	if r.DiskBytesRead == 0 {
		t.Fatal("no bytes read off the disks — storage path bypassed")
	}
	if r.StorageBytes < r.FramesSent*int64(r.Config.FrameBytes) {
		t.Fatalf("streamed %d bytes for %d frames of %d bytes",
			r.StorageBytes, r.FramesSent, r.Config.FrameBytes)
	}
	// Read-ahead hides the disks completely: delivery jitter on an
	// uncontended site stays identically zero even with real reads.
	if r.JitterP99 != 0 {
		t.Fatalf("jitter p99 = %v, want 0", sim.Duration(r.JitterP99))
	}
}

// TestVoDFromStorageDeterminism: the storage path (preload, rounds,
// SCAN batching) must not introduce nondeterminism.
func TestVoDFromStorageDeterminism(t *testing.T) {
	a := Build(storageCfg()).Run()
	b := Build(storageCfg()).Run()
	if a.FramesSent != b.FramesSent || a.FramesDelivered != b.FramesDelivered ||
		a.EventsFired != b.EventsFired || a.LatencyP99 != b.LatencyP99 ||
		a.DiskBytesRead != b.DiskBytesRead {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

// TestVoDFromStorageRefusesOverSubscription drives more titles at one
// array than its heads can carry: the excess must be refused at
// admission time, and the admitted remainder must still run clean —
// over-subscription is a refusal, never an underrun.
func TestVoDFromStorageRefusesOverSubscription(t *testing.T) {
	sc := Build(oversubscribedCfg())
	r := sc.Run()

	if r.StorageRefused == 0 {
		t.Fatal("over-subscribed array refused nothing")
	}
	if r.StorageStreams == 0 {
		t.Fatal("admission refused everything — budget model broken")
	}
	if r.StorageStreams+r.StorageRefused != 30 {
		t.Fatalf("streams %d + refused %d != 30 titles", r.StorageStreams, r.StorageRefused)
	}
	if r.Underruns != 0 || r.RoundOverruns != 0 {
		t.Fatalf("admitted streams suffered: underruns=%d overruns=%d — refusal came too late",
			r.Underruns, r.RoundOverruns)
	}
	// Refused titles hold nothing: neither link rate nor disk time.
	cm := sc.Servers[0].CM
	if cm.Committed() <= 0 || cm.Committed() > cm.Capacity() {
		t.Fatalf("committed disk time %v outside (0, %v]", cm.Committed(), cm.Capacity())
	}
}

// TestFastDisksLiftFromStorageAdmission: FastDisks reaches every mode
// that builds a disk, not only cluster and metro — the same
// over-subscribed array admits more titles on flash-era mechanics, and
// still underruns nothing.
func TestFastDisksLiftFromStorageAdmission(t *testing.T) {
	slow := Build(oversubscribedCfg()).Run()
	cfg := oversubscribedCfg()
	cfg.FastDisks = true
	fast := Build(cfg).Run()
	if fast.StorageStreams <= slow.StorageStreams {
		t.Fatalf("FastDisks admitted %d titles, the 1994 drive %d — the flag was ignored",
			fast.StorageStreams, slow.StorageStreams)
	}
	if fast.Underruns != 0 || fast.RoundOverruns != 0 {
		t.Fatalf("fast-disk run suffered: underruns=%d overruns=%d", fast.Underruns, fast.RoundOverruns)
	}
}

// TestVoDFromStorageChurn tears disk-backed streams down and re-admits
// them, checking the disk budget releases exactly and the restarted
// streams come back clean — the storage analogue of TestChurnNoLeaks.
func TestVoDFromStorageChurn(t *testing.T) {
	sc := Build(storageCfg())
	site := sc.Site()
	cm := sc.Servers[0].CM

	fullCommit := cm.Committed()
	if fullCommit <= 0 {
		t.Fatal("nothing committed after build")
	}
	baseOpen := site.Signalling.Open()

	site.Sim.RunFor(500 * sim.Millisecond) // streams up and playing
	st := sc.Streams()[0]
	cost := st.Session().CM().Cost()
	st.Stop()
	if got := cm.Committed(); got != fullCommit-cost {
		t.Fatalf("after stop: committed %v, want %v", got, fullCommit-cost)
	}
	if site.Signalling.Open() != baseOpen-1 {
		t.Fatalf("open circuits %d, want %d", site.Signalling.Open(), baseOpen-1)
	}
	site.Sim.RunFor(300 * sim.Millisecond)
	if err := st.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if got := cm.Committed(); got != fullCommit {
		t.Fatalf("after restart: committed %v, want %v", got, fullCommit)
	}
	site.Sim.RunFor(600 * sim.Millisecond) // restarted stream primes and plays

	r := sc.collect(0)
	if r.Underruns != 0 {
		t.Fatalf("churn produced %d underruns", r.Underruns)
	}
	if r.StorageStreams != 2 {
		t.Fatalf("storage streams = %d after churn, want 2", r.StorageStreams)
	}
	if r.FramesSent == 0 {
		t.Fatal("no frames after churn")
	}
}
