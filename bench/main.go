// Command bench is the repo's scenario benchmark. It builds cmd/pegload
// once, drives it as a subprocess through its documented flags and -json
// scoreboard, and measures from outside: wall clock, rusage, the
// scoreboard, and pegload's own -cpuprofile/-memprofile/-metrics-out
// artifacts. See README.md beside this file.
//
//	bash bench/run.sh                                   # every workload, every metric
//	bash bench/run.sh -workload cluster-vod -trace 0    # end-to-end metrics of one workload
//	bash bench/run.sh -selfcheck                        # A/A: two sets of runs must agree
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// harness is one invocation.
type harness struct {
	root, bin, out string // checkout root, built binaries, artifacts
	pegloadBin     string
	seed           int64
	window         time.Duration // how long the timed reps of a workload measure
	reps           int           // fixed rep count instead of the window, if > 0
	timed          bool          // timed reps: the end-to-end metrics
	traced         bool          // traced runs and probes: the per-layer metrics
	stdout, stderr io.Writer
	trace          trace
	probes         map[string]float64 // measured once per invocation
}

func realMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run one workload (default: all four)")
		seed      = fs.Int64("seed", 1, "workload seed, passed to pegload -seed")
		seconds   = fs.Float64("seconds", 20, "host seconds of timed reps per workload (three reps at least)")
		reps      = fs.Int("reps", 0, "timed reps per workload instead of -seconds (floor 3)")
		traceMode = fs.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only (default: both)")
		out       = fs.String("out", "", "directory for trace.json, profiles and time series (default .bench_build/out)")
		selfcheck = fs.Bool("selfcheck", false, "A/A: measure the end-to-end metrics twice and fail if a pair differs by more than its bound")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	h := &harness{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)), reps: *reps,
		timed: *traceMode != "1", traced: *traceMode != "0" && !*selfcheck,
		stdout: stdout, stderr: stderr,
	}
	if *traceMode != "" && *traceMode != "0" && *traceMode != "1" {
		return fmt.Errorf("-trace %q: want 0 or 1", *traceMode)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		run = []workload{*w}
	}

	var err error
	if h.root, err = findRoot(); err != nil {
		return err
	}
	h.bin = filepath.Join(h.root, ".bench_build", "bin")
	if h.out = *out; h.out == "" {
		h.out = filepath.Join(h.root, ".bench_build", "out")
	}
	if h.out, err = filepath.Abs(h.out); err != nil {
		return err
	}
	for _, dir := range []string{h.bin, h.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	h.pegloadBin = filepath.Join(h.bin, "pegload")
	if err := goBuild(h.root, "./cmd/pegload", h.pegloadBin); err != nil {
		return err
	}

	root := h.trace.begin("invocation", -1)
	if *selfcheck {
		err = h.selfcheck(run, root)
	} else {
		for i := range run {
			var res *result
			if res, err = h.measure(&run[i], root); err != nil {
				break
			}
			h.print(res)
		}
	}
	h.trace.end(root)
	if werr := h.trace.write(filepath.Join(h.out, "trace.json")); err == nil {
		err = werr
	}
	return err
}

// findRoot walks up from the working directory to the repo's go.mod, so
// the harness runs the same from the checkout root (run.sh) and from
// bench/ (go run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module repro\n") {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no go.mod of module repro above the working directory: run from the repo checkout")
		}
		dir = up
	}
}

// result is everything measured for one workload.
type result struct {
	w                 *workload
	attempted, failed int
	correct           bool
	digest            string
	endToEnd          map[string]summary
	layers            map[string]float64
}

// session is the measuring of one workload: its runs and their tally.
type session struct {
	*harness
	w       *workload
	span    int
	res     *result
	digests map[string]runKind // distinct digests of this workload's own full runs
}

// measure runs one workload: a warm-up that also writes the heap
// profile, the timed reps, then the traced runs and the probes.
func (h *harness) measure(w *workload, parent int) (*result, error) {
	s := &session{harness: h, w: w, span: h.trace.begin(w.Name, parent),
		res: &result{w: w, correct: true}, digests: map[string]runKind{}}
	defer h.trace.end(s.span)

	var runWalls []float64 // untraced run phases, the base trace overhead is taken against
	if h.timed {
		var err error
		if runWalls, err = s.timedReps(); err != nil {
			return nil, err
		}
	}
	if h.traced {
		if err := s.tracedRuns(runWalls); err != nil {
			return nil, err
		}
	}
	if len(s.digests) > 1 {
		s.res.correct = false
		fmt.Fprintf(h.stderr, "%s: scoreboard digests differ between runs of one seed: %v\n", w.Name, s.digests)
	}
	if s.res.failed > 0 {
		s.res.correct = false
	}
	return s.res, nil
}

// exec runs pegload once for the workload, tallies the run, and files
// the digest of a whole-scenario run of the workload's own flags.
func (s *session) exec(kind runKind) *run {
	r := s.pegload(s.w, kind, s.span)
	s.res.attempted++
	if r.failure != "" {
		s.res.failed++
		return r
	}
	if kind != kindBuildOnly && kind != kindTwin {
		s.digests[r.digest] = kind
		s.res.digest = r.digest
	}
	return r
}

func (s *session) timedReps() (runWalls []float64, err error) {
	warm := s.exec(kindWarmup)
	if warm.failure != "" {
		return nil, fmt.Errorf("%s: warm-up run failed", s.w.Name)
	}
	heap, err := foldFile(warm.artifact+".mem.pprof", "alloc_space")
	if err != nil {
		return nil, err
	}

	var ok []*run
	want, start := max(s.reps, 3), time.Now()
	// more says whether to start another rep after n: up to the count
	// asked for, or while the next one would still end inside the
	// window, so a run measures for -seconds and no longer.
	more := func(n int) bool {
		if n < want || s.reps > 0 {
			return n < want
		}
		elapsed := time.Since(start)
		return elapsed+elapsed/time.Duration(n) <= s.window
	}
	for n := 0; more(n); n++ {
		if r := s.exec(kindRep); r.failure == "" {
			ok = append(ok, r)
		} else if s.res.failed >= want {
			return nil, fmt.Errorf("%s: %d runs failed", s.w.Name, s.res.failed)
		}
	}

	col := func(f func(*run) float64) summary {
		xs := make([]float64, len(ok))
		for i, r := range ok {
			xs[i] = f(r)
		}
		return summarize(xs)
	}
	exact := func(key string) summary { return summarize([]float64{warm.sb.num(key)}) }
	for _, r := range ok {
		runWalls = append(runWalls, r.runWall())
	}
	s.res.endToEnd = map[string]summary{
		"setup_s":              col((*run).setup),
		"run_wall_s":           col((*run).runWall),
		"total_wall_s":         col(func(r *run) float64 { return r.wall }),
		"host_ns_per_event":    col(func(r *run) float64 { return r.runWall() * 1e9 / r.sb.num("events_fired") }),
		"cpu_user_s":           col(func(r *run) float64 { return r.user }),
		"max_rss_bytes":        col(func(r *run) float64 { return r.maxRSS }),
		"alloc_bytes":          summarize([]float64{float64(sum(heap))}),
		"sim_admitted":         exact("admitted"),
		"sim_latency_p99_ns":   exact("latency_p99_ns"),
		"sim_frames_delivered": exact("frames_delivered"),
	}
	return runWalls, nil
}

// tracedRuns measures the per-layer metrics: the profile fold of a
// traced run and of a build-only run, the work counts, and the probes.
func (s *session) tracedRuns(runWalls []float64) error {
	if len(runWalls) == 0 {
		// Per-layer only: nothing has warmed the machine yet, and trace
		// overhead still needs untraced runs to stand against.
		s.exec(kindRep)
	}
	traced := s.exec(kindTraced)
	if traced.failure != "" {
		return fmt.Errorf("%s: traced run failed", s.w.Name)
	}
	for len(runWalls) < 2 {
		if r := s.exec(kindRep); r.failure == "" {
			runWalls = append(runWalls, r.runWall())
		} else if s.res.failed >= 3 {
			return fmt.Errorf("%s: %d runs failed", s.w.Name, s.res.failed)
		}
	}
	buildOnly := s.exec(kindBuildOnly)
	if buildOnly.failure != "" {
		return fmt.Errorf("%s: build-only run failed", s.w.Name)
	}
	if s.w.twin != "" {
		s.compareTwin(traced)
	}

	cpu, err := foldFile(traced.artifact+".cpu.pprof", "cpu")
	if err != nil {
		return err
	}
	heap, err := foldFile(traced.artifact+".mem.pprof", "alloc_space")
	if err != nil {
		return err
	}
	setupCPU, err := foldFile(buildOnly.artifact+".cpu.pprof", "cpu")
	if err != nil {
		return err
	}
	series, err := readMetrics(traced.artifact + ".metrics.json")
	if err != nil {
		return err
	}
	m := workCounts(traced.sb, series)
	for _, l := range layers {
		m[l+".cpu_s"] = time.Duration(cpu[l]).Seconds()
		m[l+".alloc_bytes"] = float64(heap[l])
		m[l+".setup_cpu_s"] = time.Duration(setupCPU[l]).Seconds()
	}
	m["runtime.cpu_sys_s"] = traced.sys
	m["trace.overhead_frac"] = traced.runWall()/summarize(runWalls).median - 1
	m["trace.cpu_coverage"] = time.Duration(sum(cpu)).Seconds() / (traced.user + traced.sys)
	if s.probes == nil {
		s.harness.probes = s.runProbes(s.span)
	}
	for k, v := range s.probes {
		m[k] = v
	}
	s.res.layers = m
	s.trace.attr(traced.span, "per_layer", m)
	return nil
}

// deliveredFields must match between a workload and its twin: the two
// kernels may order same-instant events differently (latency percentiles
// move by microseconds) but must deliver exactly the same traffic.
var deliveredFields = []string{"admitted", "frames_sent", "frames_delivered", "cells_delivered", "storage_bytes"}

func (s *session) compareTwin(mine *run) {
	twin := s.exec(kindTwin)
	if twin.failure != "" {
		return
	}
	for _, f := range deliveredFields {
		if a, b := mine.sb[f], twin.sb[f]; a != b {
			s.res.correct = false
			fmt.Fprintf(s.stderr, "%s: %s = %v but twin %s has %v\n", s.w.Name, f, a, s.w.twin, b)
		}
	}
	fmt.Fprintf(s.stderr, "%s: delivers what twin %s (digest %s) delivers; latency p99 %v vs %v sim ns\n",
		s.w.Name, s.w.twin, twin.digest, mine.sb["latency_p99_ns"], twin.sb["latency_p99_ns"])
}

func foldFile(path, sampleType string) (map[string]int64, error) {
	p, err := readProfile(path)
	if err != nil {
		return nil, err
	}
	return p.fold(sampleType)
}

func sum(byLayer map[string]int64) int64 {
	var t int64
	for _, v := range byLayer {
		t += v
	}
	return t
}

// print writes every metric measured for the workload by name, with its
// unit, and last the one-line JSON result the benchmark's contract asks
// for.
func (h *harness) print(res *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	fmt.Fprintf(h.stdout, "== %s  seed %d  digest %s  runs %d  failed_runs %d\n",
		res.w.Name, h.seed, res.digest, res.attempted, res.failed)
	if res.endToEnd != nil {
		for _, m := range endToEnd {
			s := res.endToEnd[m.Name]
			metrics[m.Name] = value{s.median, m.Unit}
			fmt.Fprintf(h.stdout, "%-38s %16.6g %-10s min %.6g max %.6g n=%d (%s is better, bound %.0f%%)\n",
				m.Name, s.median, m.Unit, s.min, s.max, s.n, m.Better, 100*m.Bound)
		}
	}
	if res.layers != nil {
		for _, m := range perLayer() {
			metrics[m.Name] = value{res.layers[m.Name], m.Unit}
			fmt.Fprintf(h.stdout, "%-38s %16.6g %s\n", m.Name, res.layers[m.Name], m.Unit)
		}
		fmt.Fprintf(h.stdout, "top cpu_s: %s\ntop alloc_bytes: %s\n",
			topLayers(res.layers, ".cpu_s"), topLayers(res.layers, ".alloc_bytes"))
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		panic(err) // a NaN or Inf metric: a harness bug
	}
	fmt.Fprintln(h.stdout, string(line))
}

// topLayers names the three layers with the largest share of one fold.
func topLayers(m map[string]float64, suffix string) string {
	var total float64
	ranked := append([]string(nil), layers...)
	for _, l := range ranked {
		total += m[l+suffix]
	}
	sort.SliceStable(ranked, func(i, j int) bool { return m[ranked[i]+suffix] > m[ranked[j]+suffix] })
	var b strings.Builder
	for _, l := range ranked[:3] {
		fmt.Fprintf(&b, "%s %.0f%%  ", l, 100*ratio(m[l+suffix], total))
	}
	return strings.TrimSpace(b.String())
}

// selfcheck measures the end-to-end metrics of every workload twice on
// the same build and fails if any pair of medians differs by more than
// the metric's bound, or any simulated result differs at all.
func (h *harness) selfcheck(run []workload, parent int) error {
	var sets [2][]*result
	for set := range sets {
		for i := range run {
			res, err := h.measure(&run[i], parent)
			if err != nil {
				return err
			}
			sets[set] = append(sets[set], res)
		}
	}
	var bad []string
	fmt.Fprintf(h.stdout, "%-16s %-22s %14s %14s %8s %6s\n", "workload", "metric", "A", "A'", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		if a.digest != b.digest || !a.correct || !b.correct {
			bad = append(bad, fmt.Sprintf("%s: digests %s vs %s, correct %v vs %v", a.w.Name, a.digest, b.digest, a.correct, b.correct))
		}
		for _, m := range endToEnd {
			x, y := a.endToEnd[m.Name].median, b.endToEnd[m.Name].median
			diff := ratio(y-x, x)
			verdict := ""
			if diff > m.Bound || -diff > m.Bound {
				verdict = "  OUT OF BOUND"
				bad = append(bad, fmt.Sprintf("%s %s: %.6g vs %.6g", a.w.Name, m.Name, x, y))
			}
			fmt.Fprintf(h.stdout, "%-16s %-22s %14.6g %14.6g %+7.2f%% %5.0f%%%s\n",
				a.w.Name, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two sets of runs of the same build disagree:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Fprintln(h.stdout, "selfcheck: every pair within its bound, digests equal")
	return nil
}
