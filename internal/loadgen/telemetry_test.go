package loadgen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// telemetryCfg is a small cache-bearing cluster scenario that exercises
// every trace verb the short lane cares about: admissions, disk
// refusals and cache-served wake riders.
func telemetryCfg() Config {
	cfg := clusterCfg()
	cfg.Workstations = 12
	cfg.StreamsPerWS = 2
	cfg.Servers = 2
	cfg.Titles = 4
	cfg.ReplicationDisabled = true
	cfg.CacheMB = 64
	cfg.Duration = 4 * sim.Second
	return cfg
}

// stripWall removes wall-clock measurements and the Config echo (which
// legitimately differs in the telemetry switches) so two Results can be
// compared for virtual-time bit-identity.
func stripWall(r *Result) {
	r.Config = Config{}
	r.WallSeconds = 0
	r.EventsPerSec = 0
	r.CellsPerSec = 0
}

// TestTelemetryNeverPerturbs is the observability plane's core
// property: a run with tracing and metrics sampling enabled must
// produce the same scoreboard — frame counts, latency percentiles,
// events fired — as the identical run with telemetry off. The sampler
// chains real clock events; collect subtracts them back out.
func TestTelemetryNeverPerturbs(t *testing.T) {
	cfg := telemetryCfg()
	off := Build(cfg).Run()

	cfg.Trace = true
	cfg.MetricsEvery = 250 * sim.Millisecond
	on := Build(cfg).Run()

	stripWall(&off)
	stripWall(&on)
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("telemetry changed the scoreboard:\noff: %+v\non:  %+v", off, on)
	}
}

// TestTelemetryDeterministic pins the telemetry byte streams
// themselves: the metrics and the trace are a pure function of the
// configuration.
func TestTelemetryDeterministic(t *testing.T) {
	emit := func() (metrics, trace []byte) {
		cfg := telemetryCfg()
		cfg.Trace = true
		cfg.MetricsEvery = 250 * sim.Millisecond
		sc := Build(cfg)
		sc.Run()
		var m, tr bytes.Buffer
		if err := sc.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		if err := sc.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), tr.Bytes()
	}

	ma, ta := emit()
	mb, tb := emit()
	if !bytes.Equal(ma, mb) {
		t.Error("two runs emitted different metrics")
	}
	if !bytes.Equal(ta, tb) {
		t.Error("two runs emitted different traces")
	}
}

// TestTelemetryTraceContent asserts the trace actually carries the
// lifecycle the plane promises: opens, admissions with per-leg
// headrooms, disk refusals attributed to their leg, and cache-served
// streams — and that the refused count agrees with the site's per-leg
// refusal stats (one taxonomy, one source of truth).
func TestTelemetryTraceContent(t *testing.T) {
	cfg := telemetryCfg()
	cfg.Trace = true
	sc := Build(cfg)
	res := sc.Run()

	events := sc.Site().Trace().Events()
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Event]++
		switch ev.Event {
		case "admitted":
			if len(ev.Legs) == 0 {
				t.Fatalf("admitted event without leg samples: %+v", ev)
			}
		case "refused":
			if ev.Leg == "" {
				t.Fatalf("refused event without a leg: %+v", ev)
			}
		}
	}
	if counts["open"] == 0 || counts["admitted"] == 0 {
		t.Fatalf("trace missing opens/admissions: %v", counts)
	}
	if res.StorageRefused > 0 && counts["refused"] == 0 {
		t.Fatalf("scoreboard refused %d but trace has no refused events", res.StorageRefused)
	}
	if res.CacheServedStreams > 0 && counts["cache-served"] == 0 {
		t.Fatalf("scoreboard has %d cache-served streams but trace has none",
			res.CacheServedStreams)
	}

	var byLeg int64
	qs := sc.Site().QoSStats
	for _, n := range qs.RefusedLeg {
		byLeg += n
	}
	if byLeg+qs.RefusedOther != qs.Refused {
		t.Fatalf("per-leg refusals (%d) + other (%d) != refused (%d)",
			byLeg, qs.RefusedOther, qs.Refused)
	}
}
