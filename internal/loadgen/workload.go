package loadgen

// Workload pieces: which streams a mode admits over its topology.

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/vodsite"
)

// meshStreams is the videophone pattern: every workstation sends
// StreamsPerWS streams to that many distinct peers, one circuit each.
func (sc *Scenario) meshStreams() {
	n, m := sc.cfg.Workstations, sc.cfg.StreamsPerWS
	cams := make([]*core.Endpoint, n)
	sc.viewers = make([]*core.Endpoint, n)
	for i := 0; i < n; i++ {
		cams[i] = sc.site.Attach(fmt.Sprintf("ws%d.cam", i))
		sc.viewers[i] = sc.site.Attach(fmt.Sprintf("ws%d.disp", i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			peer := (i + 1 + j%max(n-1, 1)) % n
			sc.newRequest(cams[i], nil, "", i*m+j, sc.viewers[peer])
		}
	}
}

// fanoutStreams is the VoD pattern: each server publishes StreamsPerWS
// titles; every viewer subscribes to that many, spread across the
// catalogue; the switch fans each title's single transmission out to
// its subscribers. In a storage-backed run the title is a real file and
// the stream's admission carries the disk leg.
func (sc *Scenario) fanoutStreams() {
	cfg := &sc.cfg
	stored := sc.mode.storageBacked(cfg)
	subs := make([][]*core.Endpoint, sc.titles)
	for i, viewer := range sc.viewers {
		for j := 0; j < cfg.StreamsPerWS; j++ {
			t := (i*cfg.StreamsPerWS + j) % sc.titles
			subs[t] = append(subs[t], viewer)
		}
	}
	for t, legs := range subs {
		if len(legs) == 0 {
			continue
		}
		if stored {
			sc.newStoredRequest(t, t, legs...)
		} else {
			sc.newRequest(sc.Servers[t%cfg.Servers].Net, nil, "", t, legs...)
		}
	}
}

// newStoredRequest asks title t's own server (t mod Servers) for it.
func (sc *Scenario) newStoredRequest(t, idx int, viewers ...*core.Endpoint) {
	ss := sc.Servers[t%sc.cfg.Servers]
	sc.newRequest(ss.Net, ss, titleName(t), idx, viewers...)
}

// unicastRequests issues one disk-backed request per (viewer, slot),
// spread across the catalog, each on its title's own server. Unlike the
// shared fan-out, disk and link load scale with requests — the
// over-subscription the Adaptive class and the CPU leg exist for. With
// a release schedule (ReleaseAt, ReleaseEvery), streams close mid-run
// and the freed budget restores degraded survivors.
func (sc *Scenario) unicastRequests() {
	cfg := &sc.cfg
	for i, viewer := range sc.viewers {
		for j := 0; j < cfg.StreamsPerWS; j++ {
			idx := i*cfg.StreamsPerWS + j
			sc.newStoredRequest(idx%sc.titles, idx, viewer)
		}
	}
	if cfg.ReleaseAt > 0 && cfg.ReleaseEvery > 0 {
		sc.atRun = append(sc.atRun, func() { sc.clock.CallAfter(cfg.ReleaseAt, sc.releaseSome) })
	}
}

// releaseSome closes every ReleaseEvery'th admitted request — the
// freed budget flows back to degraded survivors through the site's
// restore-on-close policy.
func (sc *Scenario) releaseSome() {
	k := 0
	for _, r := range sc.requests {
		if r.h == nil {
			continue
		}
		if k++; k%sc.cfg.ReleaseEvery == 0 {
			r.Stop()
		}
	}
}

// zipfRequests issues Workstations × StreamsPerWS requests for
// Zipf-popular titles, deterministically sampled from Seed; the
// topology's controller picks where each plays from.
func (sc *Scenario) zipfRequests() {
	cfg := &sc.cfg
	z := vodsite.NewZipf(sc.titles, cfg.ZipfS)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i, viewer := range sc.viewers {
		for j := 0; j < cfg.StreamsPerWS; j++ {
			sc.newRequest(nil, nil, titleName(z.Sample(rng.Float64())), i*cfg.StreamsPerWS+j, viewer)
		}
	}
}
