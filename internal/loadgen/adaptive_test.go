package loadgen

import (
	"testing"

	"repro/internal/sim"
)

// adaptiveCfg over-subscribes one server's disks twelvefold at full
// quality: 19200-byte frames over 500 ms rounds on 16 KiB chunks, where
// one full-tier stream nearly fills the round budget and a floor-tier
// stream costs less than a third of it.
func adaptiveCfg() Config {
	return Config{
		Adaptive:     true,
		Workstations: 6,
		StreamsPerWS: 2,
		Servers:      1,
		Duration:     4 * sim.Second,
	}
}

// TestAdaptiveAdmitsMoreThanGuaranteed is the acceptance ablation: the
// same over-subscribed run admits strictly more concurrent streams in
// the Adaptive class than with classes forced to Guaranteed, and both
// runs hold the guarantee for everything they admitted — zero buffer
// underruns.
func TestAdaptiveAdmitsMoreThanGuaranteed(t *testing.T) {
	ad := Build(adaptiveCfg()).Run()

	g := adaptiveCfg()
	g.GuaranteedOnly = true
	gu := Build(g).Run()

	if gu.StorageStreams == 0 {
		t.Fatal("guaranteed baseline admitted nothing — scenario broken")
	}
	if ad.StorageStreams <= gu.StorageStreams {
		t.Fatalf("adaptive admitted %d streams, guaranteed %d — want strictly more",
			ad.StorageStreams, gu.StorageStreams)
	}
	if ad.Underruns != 0 || gu.Underruns != 0 {
		t.Fatalf("underruns adaptive=%d guaranteed=%d, want 0/0", ad.Underruns, gu.Underruns)
	}
	if ad.RoundOverruns != 0 {
		t.Fatalf("adaptive run overran %d rounds", ad.RoundOverruns)
	}
	if ad.DegradeEvents == 0 || ad.SessionsDegraded == 0 {
		t.Fatalf("adaptive run never degraded: events=%d degraded=%d",
			ad.DegradeEvents, ad.SessionsDegraded)
	}
	if gu.DegradeEvents != 0 {
		t.Fatalf("guaranteed run degraded %d times — class contract broken", gu.DegradeEvents)
	}
	if ad.DiskBytesRead == 0 {
		t.Fatal("adaptive run read nothing off the disks")
	}
}

// TestAdaptiveRestoresOnRelease: the mid-run releases free budget and
// the site restores degraded survivors into it.
func TestAdaptiveRestoresOnRelease(t *testing.T) {
	r := Build(adaptiveCfg()).Run()
	if r.TornDown == 0 {
		t.Fatal("release schedule did not fire")
	}
	if r.RestoreEvents == 0 {
		t.Fatalf("no restore events after %d releases (degrade events: %d)",
			r.TornDown, r.DegradeEvents)
	}
	if r.Underruns != 0 {
		t.Fatalf("%d underruns across the degrade/restore churn", r.Underruns)
	}
	// Budgets stayed sane throughout: what is still up is still backed
	// by a disk reservation within the round budget.
	sc := Build(adaptiveCfg())
	res := sc.Run()
	svc := sc.Servers[0].CM
	if svc.Committed() > svc.Capacity() {
		t.Fatalf("disk over-committed at end: %v > %v", svc.Committed(), svc.Capacity())
	}
	for _, st := range sc.Streams() {
		if st.Session() != nil {
			st.Stop()
		}
	}
	if svc.Committed() != 0 {
		t.Fatalf("committed %v after closing every session, want 0", svc.Committed())
	}
	if res.SessionsUp == 0 {
		t.Fatal("no sessions survived the run")
	}
}

// TestAdaptiveDeterminism: the degrade/restore machinery must not
// introduce nondeterminism.
func TestAdaptiveDeterminism(t *testing.T) {
	a := Build(adaptiveCfg()).Run()
	b := Build(adaptiveCfg()).Run()
	if a.FramesSent != b.FramesSent || a.FramesDelivered != b.FramesDelivered ||
		a.EventsFired != b.EventsFired || a.StorageStreams != b.StorageStreams ||
		a.DegradeEvents != b.DegradeEvents || a.RestoreEvents != b.RestoreEvents ||
		a.DiskBytesRead != b.DiskBytesRead {
		t.Fatalf("runs differ:\n%+v\nvs\n%+v", a, b)
	}
}
