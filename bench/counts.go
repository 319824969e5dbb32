package main

import (
	"encoding/json"
	"os"
)

// metricsFile is pegload's -metrics-out artifact (pegasus-metrics/v1):
// one values column per (node, subsystem, name) on a shared time axis.
type metricsFile struct {
	Series []struct {
		Node      string    `json:"node"`
		Subsystem string    `json:"subsystem"`
		Name      string    `json:"name"`
		Values    []float64 `json:"values"`
	} `json:"series"`
}

func readMetrics(path string) (*metricsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m metricsFile
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// total sums a series' final sample over every node that reports it; a
// series no node reports (the cluster-sync gauges on a serial kernel)
// totals zero.
func (m *metricsFile) total(subsystem, name string) float64 {
	var sum float64
	for _, s := range m.Series {
		// The "metro" node repeats refused_trunk federation-wide; the
		// core.* counts are the per-site ones.
		if s.Node == "metro" && subsystem == "admission" {
			continue
		}
		if s.Subsystem == subsystem && s.Name == name && len(s.Values) > 0 {
			sum += s.Values[len(s.Values)-1]
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// workCounts reads the traced run's scoreboard and time series into the
// per-layer work counts. All are simulated quantities.
func workCounts(sb scoreboard, m *metricsFile) map[string]float64 {
	opened, refused := m.total("admission", "opened"), m.total("admission", "refused")
	hits, misses := sb.num("cache_hits"), sb.num("cache_misses")
	return map[string]float64{
		"sim.events":                    sb.num("events_fired"),
		"sim.windows":                   m.total("sim", "windows"),
		"sim.barrier_stalls":            m.total("sim", "barrier_stalls"),
		"sim.cross_delivered":           m.total("sim", "cross_delivered"),
		"atm.cells":                     sb.num("cells_delivered"),
		"loadgen.frames_sent":           sb.num("frames_sent"),
		"netsig.circuits_established":   m.total("net", "circuits_established"),
		"netsig.circuits_refused":       m.total("net", "circuits_refused"),
		"core.refused":                  refused,
		"core.refused_link":             m.total("admission", "refused_link"),
		"core.refused_uplink":           m.total("admission", "refused_uplink"),
		"core.refused_disk":             m.total("admission", "refused_disk"),
		"core.refused_trunk":            m.total("admission", "refused_trunk"),
		"core.admit_ratio":              ratio(opened, opened+refused),
		"fileserver.storage_bytes":      sb.num("storage_bytes"),
		"fileserver.cache_hits":         hits,
		"fileserver.cache_hit_ratio":    ratio(hits, hits+misses),
		"fileserver.cache_bytes_served": sb.num("cache_bytes_served"),
		"fileserver.cache_demotions":    sb.num("cache_demotions"),
		"disk.bytes_read":               sb.num("disk_bytes_read"),
		"disk.read_amplification":       ratio(sb.num("disk_bytes_read"), sb.num("storage_bytes")),
		"vodsite.storage_refused":       sb.num("storage_refused"),
		"vodsite.failover_recovered":    sb.num("failover_recovered"),
		"metro.spilled":                 sb.num("spilled"),
		"metro.trunk_refused":           sb.num("trunk_refused"),
		"metro.catalog_syncs":           sb.num("catalog_syncs"),
		"metro.cross_site_copies":       sb.num("cross_site_copies"),
		"metro.site_recovered":          sb.num("site_recovered"),
	}
}
