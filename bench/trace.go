package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one interval of the harness's own work: the invocation, a
// workload, a pegload run with its setup and run-phase, a probe. Parent
// is an index into the trace's span list, -1 for the root. The traced
// run's span carries the per-layer fold and the work counts as attrs.
type span struct {
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Parent  int            `json:"parent"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// trace keeps spans in memory until the invocation ends.
type trace struct {
	Spans []span `json:"spans"`
}

func (t *trace) add(name string, parent int, start, end time.Time) int {
	t.Spans = append(t.Spans, span{Name: name, StartNS: start.UnixNano(), EndNS: end.UnixNano(), Parent: parent})
	return len(t.Spans) - 1
}

func (t *trace) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *trace) endAt(id int, end time.Time) { t.Spans[id].EndNS = end.UnixNano() }

func (t *trace) end(id int) { t.endAt(id, time.Now()) }

func (t *trace) attr(id int, key string, value any) {
	if t.Spans[id].Attrs == nil {
		t.Spans[id].Attrs = map[string]any{}
	}
	t.Spans[id].Attrs[key] = value
}

func (t *trace) write(path string) error {
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
