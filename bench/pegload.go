package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// scoreboard is pegload's -json output, kept as decoded (numbers with
// all their digits) so the digest covers every column, including ones a
// later change adds.
type scoreboard map[string]any

// num reads one numeric column; a missing column reads as zero (the
// metro and cache columns are omitted by runs that have none).
func (sb scoreboard) num(key string) float64 {
	n, ok := sb[key].(json.Number)
	if !ok {
		return 0
	}
	f, _ := n.Float64() // a json.Number the decoder accepted parses
	return f
}

// hostFields are the scoreboard's only host-time columns; everything
// else is simulated and must repeat exactly for a seed.
var hostFields = []string{"wall_seconds", "events_per_sec", "cells_per_sec"}

// parseScoreboard decodes pegload's output and hashes it with the
// host-time columns removed. Two runs of one seed must have equal
// digests, profiled or not; parent and change compare by digest too.
func parseScoreboard(out []byte) (scoreboard, string, error) {
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.UseNumber()
	var sb scoreboard
	if err := dec.Decode(&sb); err != nil {
		return nil, "", fmt.Errorf("scoreboard: %w", err)
	}
	sim := make(scoreboard, len(sb))
	for k, v := range sb {
		sim[k] = v
	}
	for _, k := range hostFields {
		delete(sim, k)
	}
	canon, err := json.Marshal(sim) // map keys marshal sorted
	if err != nil {
		return nil, "", fmt.Errorf("scoreboard: %w", err)
	}
	return sb, fmt.Sprintf("%x", sha256.Sum256(canon))[:16], nil
}

// runKind says what a pegload run is for.
type runKind string

const (
	kindWarmup    runKind = "warm-up"    // untimed; writes the heap profile alloc_bytes is read from
	kindRep       runKind = "rep"        // timed, no profiling
	kindTraced    runKind = "traced"     // cpu + heap profile + -metrics-out
	kindBuildOnly runKind = "build-only" // traced, one frame period, no checks
	kindTwin      runKind = "twin"       // the twin workload's flags, for the delivery comparison
)

// run is one pegload process as seen from outside.
type run struct {
	kind     runKind
	span     int // the run's span in the trace
	sb       scoreboard
	digest   string
	wall     float64 // process wall seconds
	user     float64 // child user CPU seconds
	sys      float64
	maxRSS   float64 // bytes
	failure  string  // why the run counts as failed; empty if it passed
	artifact string  // path prefix of the run's profile and metrics files
}

func (r *run) runWall() float64 { return r.sb.num("wall_seconds") }

// setup is everything in the process that is not the run phase: site
// build, placement, the admission wave, and the final collect.
func (r *run) setup() float64 { return r.wall - r.runWall() }

// pegload runs one pegload process for the workload and records a span
// for it with its setup and run-phase children.
func (h *harness) pegload(w *workload, kind runKind, parent int) *run {
	r := &run{kind: kind, artifact: filepath.Join(h.out, fmt.Sprintf("%s.%s", w.Name, kind))}
	flags, seconds := w.flags, w.seconds
	if kind == kindTwin {
		flags = findWorkload(w.twin).flags
	}
	if kind == kindBuildOnly {
		seconds = w.framePeriod
	}
	args := append([]string{}, flags...)
	args = append(args, "-seconds", seconds, "-seed", strconv.FormatInt(h.seed, 10), "-json")
	if kind != kindBuildOnly {
		args = append(args, w.checks...)
	}
	switch kind {
	case kindWarmup:
		args = append(args, "-memprofile", r.artifact+".mem.pprof")
	case kindBuildOnly:
		args = append(args, "-cpuprofile", r.artifact+".cpu.pprof")
	case kindTraced:
		secs, err := strconv.ParseFloat(seconds, 64)
		if err != nil {
			panic(err) // the workload table is wrong
		}
		// Two samples: the work counts are read off the last one.
		args = append(args,
			"-cpuprofile", r.artifact+".cpu.pprof", "-memprofile", r.artifact+".mem.pprof",
			"-metrics-out", r.artifact+".metrics.json",
			"-metrics-every", strconv.FormatFloat(secs/2, 'f', -1, 64))
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.pegloadBin, args...)
	cmd.Env = pinnedEnv()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	r.span = h.trace.begin(string(kind), parent)
	start := time.Now()
	err := cmd.Run()
	end := time.Now()
	r.wall = end.Sub(start).Seconds()
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.user = time.Duration(ru.Utime.Nano()).Seconds()
			r.sys = time.Duration(ru.Stime.Nano()).Seconds()
			r.maxRSS = float64(ru.Maxrss) * 1024 // Linux reports KiB
		}
	}
	if err != nil {
		r.failure = fmt.Sprintf("%v: %s", err, strings.TrimSpace(stderr.String()))
	} else if r.sb, r.digest, err = parseScoreboard(stdout.Bytes()); err != nil {
		r.failure = err.Error()
	} else if n := r.sb.num("round_overruns"); n != 0 {
		r.failure = fmt.Sprintf("%v scheduler rounds overran", n)
	}
	h.trace.endAt(r.span, end)
	if r.failure != "" {
		fmt.Fprintf(h.stderr, "%s %s run FAILED: %s\n", w.Name, kind, r.failure)
		return r
	}
	// From outside only the split is known, not where the collect sits:
	// the setup span is drawn first, at its full length.
	mid := start.Add(time.Duration(r.setup() * float64(time.Second)))
	h.trace.add("setup", r.span, start, mid)
	h.trace.add("run-phase", r.span, mid, end)
	h.trace.attr(r.span, "digest", r.digest)
	fmt.Fprintf(h.stderr, "%s %-10s total %.3fs run %.3fs setup %.3fs user %.3fs sys %.3fs rss %.0f MiB digest %s\n",
		w.Name, kind, r.wall, r.runWall(), r.setup(), r.user, r.sys, r.maxRSS/(1<<20), r.digest)
	return r
}

// runTimeout bounds one pegload or probe process, ten times what the
// slowest takes here, so a hung child fails its run instead of hanging
// the invocation.
const runTimeout = 60 * time.Second

// pinnedEnv is the environment every pegload and probe runs in: two
// procs whatever the host has, and the runtime's default GC and debug
// settings whatever the caller exported.
func pinnedEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch name, _, _ := strings.Cut(kv, "="); name {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
		default:
			env = append(env, kv)
		}
	}
	return append(env, "GOMAXPROCS=2")
}

// goBuild builds one main package of the module rooted at dir.
func goBuild(dir, pkg, out string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}
