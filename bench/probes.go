package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runProbes builds and runs the per-layer probe programs and returns
// their metrics. Each probe is its own main package, built on its own:
// one that no longer compiles (a later change may alter a signature it
// calls, and may not edit bench/) or whose set-up fails costs only its
// own metrics, which then read zero — never a valid time — under a
// "skipped" line.
func (h *harness) runProbes(parent int) map[string]float64 {
	out := map[string]float64{}
	perMeasure := strconv.FormatFloat(h.window.Seconds()/64, 'f', 3, 64)
	for _, p := range probeMetrics {
		sp := h.trace.begin("probe "+p.layer, parent)
		got, err := h.runProbe(p.layer, perMeasure)
		h.trace.end(sp)
		for _, m := range p.metrics {
			if _, ok := got[m.Name]; err == nil && !ok {
				err = fmt.Errorf("run failed: %s not reported", m.Name)
			}
		}
		if err != nil {
			got = nil // partial output counts for nothing
			fmt.Fprintf(h.stderr, "probe %s skipped: %v\n", p.layer, err)
			h.trace.attr(sp, "skipped", err.Error())
		}
		for _, m := range p.metrics {
			out[m.Name] = got[m.Name]
		}
	}
	return out
}

// runProbe builds one probe program and runs it.
func (h *harness) runProbe(layer, perMeasure string) (map[string]float64, error) {
	bin := filepath.Join(h.bin, "probe-"+layer)
	if err := goBuild(filepath.Join(h.root, "bench"), "./probes/"+layer, bin); err != nil {
		fmt.Fprintln(h.stderr, err)
		return nil, fmt.Errorf("build failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-seconds", perMeasure)
	cmd.Env = pinnedEnv()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run failed: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		var line struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("run failed: output %q: %v", sc.Text(), err)
		}
		got[line.Name] = line.Value
	}
	return got, nil
}
