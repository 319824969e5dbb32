package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func k(node, sub, name string) Key {
	return Key{Node: node, Subsystem: sub, Name: name}
}

func TestCounterHandleIsStable(t *testing.T) {
	r := NewRegistry()
	key := k("n0", "net", "cells")
	if got := r.CounterValue(key); got != 0 {
		t.Fatalf("unresolved CounterValue = %d, want 0", got)
	}
	r.Counter(key).Add(5)
	r.Counter(key).Inc()
	if r.Counter(key) != r.Counter(key) {
		t.Fatal("Counter resolution is not stable")
	}
	if got := r.CounterValue(key); got != 6 {
		t.Fatalf("CounterValue = %d, want 6", got)
	}
}

func TestCounterZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(k("n0", "sub", "hot"))
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter Inc+Add allocates %v per run, want 0", n)
	}
}

func TestSampleHandleIsStable(t *testing.T) {
	r := NewRegistry()
	key := k("n0", "traffic", "latency_ns")
	r.Sample(key).Add(1)
	r.Sample(key).Add(3)
	r.Sample(key).Add(2)
	m := r.Sample(key)
	if m.N() != 3 {
		t.Fatalf("N = %d, want 3", m.N())
	}
	if got := m.Median(); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

func TestGaugeReplaceAndSnapshotOrder(t *testing.T) {
	r := NewRegistry()
	gk := k("n0", "disk", "headroom")
	r.Gauge(gk, func() float64 { return 0.25 })
	r.Gauge(gk, func() float64 { return 0.5 }) // re-register replaces
	r.Counter(k("n1", "net", "b")).Inc()
	r.Counter(k("n0", "net", "a")).Add(2)
	pts := r.Snapshot()
	if len(pts) != 3 {
		t.Fatalf("snapshot has %d points, want 3", len(pts))
	}
	// Counters first (sorted by key), then gauges.
	want := []Point{
		{Key: k("n0", "net", "a"), Kind: "counter", Value: 2},
		{Key: k("n1", "net", "b"), Kind: "counter", Value: 1},
		{Key: gk, Kind: "gauge", Value: 0.5},
	}
	for i, w := range want {
		if pts[i] != w {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, pts[i], w)
		}
	}
}

func TestTracerTimeThenRecordOrder(t *testing.T) {
	tr := NewTracer()
	tr.Record(Event{T: 10, Event: "b"})
	tr.Record(Event{T: 10, Event: "a"})
	tr.Record(Event{T: 5, Event: "first"})
	tr.Record(Event{T: 10, Event: "c"})
	evs := tr.Events()
	got := make([]string, len(evs))
	for i, ev := range evs {
		got[i] = ev.Event
	}
	// t=5 first, then the three at t=10 in record order.
	want := []string{"first", "b", "a", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL has %d lines, want 4", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("JSONL line does not parse: %v", err)
	}
	if ev.Event != "first" || ev.T != 5 || ev.Seq != 2 {
		t.Fatalf("first JSONL line = %+v", ev)
	}
}

func TestSamplerChainCadence(t *testing.T) {
	r := NewRegistry()
	key := k("n0", "traffic", "frames")
	c := r.Counter(key)
	s := sim.New()
	var stop bool
	var work func()
	work = func() {
		c.Inc()
		if !stop {
			s.After(3, work)
		}
	}
	s.After(3, work)
	sp := NewSampler(r, 10)
	sp.Chain(s)
	s.RunUntil(35)
	stop = true
	sp.Final(s.Now())
	// Ticks at t=10,20,30 plus the forced final at t=35.
	wantTimes := []sim.Time{10, 20, 30, 35}
	var doc struct {
		Schema    string       `json:"schema"`
		CadenceNS sim.Duration `json:"cadence_ns"`
		TNS       []sim.Time   `json:"t_ns"`
		Series    []struct {
			Node   string    `json:"node"`
			Name   string    `json:"name"`
			Kind   string    `json:"kind"`
			Values []float64 `json:"values"`
		} `json:"series"`
	}
	var buf bytes.Buffer
	if err := sp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != MetricsSchema || doc.CadenceNS != 10 {
		t.Fatalf("schema/cadence = %q/%d", doc.Schema, doc.CadenceNS)
	}
	if len(doc.TNS) != len(wantTimes) {
		t.Fatalf("t_ns = %v, want %v", doc.TNS, wantTimes)
	}
	for i := range wantTimes {
		if doc.TNS[i] != wantTimes[i] {
			t.Fatalf("t_ns = %v, want %v", doc.TNS, wantTimes)
		}
	}
	if sp.Ticks() != 3 {
		t.Fatalf("Ticks = %d, want 3 (final is not a chain tick)", sp.Ticks())
	}
	if len(doc.Series) != 1 {
		t.Fatalf("series count = %d, want 1", len(doc.Series))
	}
	col := doc.Series[0]
	// Counter increments at t=3,6,9,...: 3 by t=10, 6 by t=20. At t=30
	// the sampler's tick (scheduled at t=20) fires before the t=30
	// increment (scheduled at t=27), so it still reads 9.
	want := []float64{3, 6, 9, 11}
	for i := range want {
		if col.Values[i] != want[i] {
			t.Fatalf("values = %v, want %v", col.Values, want)
		}
	}
}

func TestSamplerBackfillsLateSeries(t *testing.T) {
	r := NewRegistry()
	sp := NewSampler(r, 1)
	sp.Tick(1)
	r.Counter(k("n0", "late", "born")).Inc()
	sp.Tick(2)
	var buf bytes.Buffer
	if err := sp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []struct {
			Values []float64 `json:"values"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || len(doc.Series[0].Values) != 2 {
		t.Fatalf("series = %+v, want one column of length 2", doc.Series)
	}
	if doc.Series[0].Values[0] != 0 || doc.Series[0].Values[1] != 1 {
		t.Fatalf("backfill = %v, want [0 1]", doc.Series[0].Values)
	}
}

func TestSamplerEmptyOutputIsSchemaValid(t *testing.T) {
	sp := NewSampler(NewRegistry(), 10)
	var buf bytes.Buffer
	if err := sp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"t_ns":[]`) {
		t.Fatalf("empty sampler output lacks empty t_ns axis: %s", out)
	}
}

func TestKeyOrderingAndString(t *testing.T) {
	a := k("a", "z", "z")
	b := k("b", "a", "a")
	if !a.less(b) || b.less(a) {
		t.Fatal("Key ordering is not Node-major")
	}
	if got := k("n", "s", "m").String(); got != "n/s/m" {
		t.Fatalf("Key.String = %q", got)
	}
}
