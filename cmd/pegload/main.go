// Command pegload runs the site-scale load generator and prints the
// scaling scoreboard: admitted streams, events/sec, cells/sec and
// latency/jitter percentiles. It is the fixture every performance PR is
// measured against.
//
// Examples:
//
//	pegload                                   # 50 ws × 10 streams, 10 s
//	pegload -pattern vod -ws 64 -streams 8
//	pegload -from-storage -ws 100 -streams 25 -servers 4
//	pegload -cluster -ws 24 -streams 2 -servers 4 -titles 8 -zipf 1.6
//	pegload -cluster -base-replicas 2 -fail-node-at 3 -fail-node 0
//	pegload -metro -sites 3 -site-replicas 2 -spill-ablation  # federated sites, flash crowd on site 0
//	pegload -adaptive -ws 6 -streams 2 -seconds 4 -expect-degraded
//	pegload -cell-accurate -ws 8 -seconds 1   # exact per-cell model
//	pegload -json
//
// With -check, pegload exits non-zero unless the run actually proved
// something: streams admitted, frames delivered, and — for storage-
// backed runs — zero buffer underruns among admitted streams. CI runs
// the scoreboard this way so a silently-degenerate run fails the build.
//
// Scenario flags are loadgen.Config's flag-tagged fields, bound in one
// loop and all defaulting to zero: loadgen's mode table is the only
// place a scenario default lives, so a command line runs exactly the
// Config literal it spells. Config.Validate is the only judge of which
// modes combine; the ablation twins and the scoreboard assertions are
// the two tables below.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/internal/loadgen"
	"repro/internal/sim"
)

// seconds binds a flag given in (fractional) seconds to a sim.Duration,
// rounded to the nearest nanosecond: 0.3 s must mean exactly 30 frame
// periods, not 299999999 ns (which admission would refuse).
type seconds sim.Duration

func (s *seconds) Set(v string) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return err
	}
	*s = seconds(math.Round(f * float64(sim.Second)))
	return nil
}

func (s *seconds) String() string {
	return strconv.FormatFloat(float64(*s)/float64(sim.Second), 'g', -1, 64)
}

// ablation is one twin run: the identical scenario with one mechanism
// switched off, run first so the scoreboard can state what the
// mechanism bought. Telemetry stays off for the twin — the emitted
// trace and time series describe the measured run only.
type ablation struct {
	flag, needs, help string
	off               func(c *loadgen.Config)                      // turns the run into its twin
	fold              func(r *loadgen.Result, twin loadgen.Result) // records the twin's column
}

var ablations = []ablation{
	{
		flag: "cache-ablation", needs: "cache-mb",
		help: "run the identical scenario twice — RAM tier off, then on — and report the " +
			"cached/ablation stream-count ratio as a scoreboard column",
		off: func(c *loadgen.Config) { c.CacheMB = 0 },
		fold: func(r *loadgen.Result, twin loadgen.Result) {
			r.AblationStreams = twin.StorageStreams
			if twin.StorageStreams > 0 {
				r.CacheRatio = float64(r.StorageStreams) / float64(twin.StorageStreams)
			}
		},
	},
	{
		flag: "unicast-ablation", needs: "live",
		help: "run the identical -live scenario twice — one circuit and one transmitted " +
			"copy per viewer, then the shared multicast tree — and report both join " +
			"counts; with -check the multicast run must admit strictly more",
		off:  func(c *loadgen.Config) { c.Unicast = true },
		fold: func(r *loadgen.Result, twin loadgen.Result) { r.UnicastAblationJoins = twin.LiveJoins },
	},
	{
		flag: "spill-ablation", needs: "metro",
		help: "run the identical federation twice — spill off, then on — and report " +
			"both admission counts; with -check the spilling run must admit strictly more",
		off:  func(c *loadgen.Config) { c.NoSpill = true },
		fold: func(r *loadgen.Result, twin loadgen.Result) { r.SpillAblationAdmitted = twin.Admitted },
	},
}

// assertion is one scoreboard check: with its flag given — a bool set,
// or a -min-* threshold above zero, passed as min — the run fails with
// msg unless ok holds. The scoreboard printed above the failure has the
// numbers. A row without help rides the flag of a row above.
type assertion struct {
	flag, help string
	threshold  any // nil: bool flag; 0: int flag; 0.0: float flag
	ok         func(r *loadgen.Result, min float64) bool
	msg        string
}

func active(counts []int64) (n int) {
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n
}

var assertions = []assertion{
	{flag: "check", help: "exit 1 unless streams were admitted, frames delivered, and no " +
		"storage buffer underruns occurred",
		ok:  func(r *loadgen.Result, _ float64) bool { return r.Admitted > 0 },
		msg: "no stream legs admitted"},
	{flag: "check",
		ok:  func(r *loadgen.Result, _ float64) bool { return r.FramesDelivered > 0 },
		msg: "no frames delivered"},
	{flag: "check",
		ok:  func(r *loadgen.Result, _ float64) bool { return r.Underruns == 0 },
		msg: "buffer underruns among admitted streams"},
	{flag: "check",
		ok:  func(r *loadgen.Result, _ float64) bool { return !r.Config.StorageBacked() || r.DiskBytesRead > 0 },
		msg: "storage-backed run read nothing off the disks"},
	{flag: "check",
		ok:  func(r *loadgen.Result, _ float64) bool { return r.DeadlineMisses == 0 },
		msg: "EDF deadline misses among admitted streams' CPU domains"},
	// The ablation columns are zero unless the twin ran.
	{flag: "check",
		ok: func(r *loadgen.Result, _ float64) bool {
			return r.SpillAblationAdmitted == 0 || r.Admitted > r.SpillAblationAdmitted
		},
		msg: "spill admitted no more sessions than the no-spill twin (federation bought nothing)"},
	{flag: "check",
		ok: func(r *loadgen.Result, _ float64) bool {
			return r.UnicastAblationJoins == 0 || r.LiveJoins > r.UnicastAblationJoins
		},
		msg: "multicast admitted no more joins than the unicast twin (the tree bought nothing)"},
	{flag: "min-storage-streams", threshold: 0,
		help: "exit 1 unless at least this many disk-backed streams are up",
		ok:   func(r *loadgen.Result, min float64) bool { return r.StorageStreams >= int(min) },
		msg:  "too few disk-backed streams up"},
	{flag: "expect-storage-refusals",
		help: "exit 1 unless storage admission refused at least one title (over-subscription proof)",
		ok:   func(r *loadgen.Result, _ float64) bool { return r.StorageRefused > 0 },
		msg:  "expected storage admission to refuse titles; it admitted everything"},
	{flag: "min-active-nodes", threshold: 0,
		help: "exit 1 unless at least this many nodes admitted streams (cluster)",
		ok:   func(r *loadgen.Result, min float64) bool { return active(r.NodeAdmissions) >= int(min) },
		msg:  "streams admitted on too few nodes"},
	{flag: "expect-replication",
		help: "exit 1 unless at least one reactive replication completed (cluster)",
		ok:   func(r *loadgen.Result, _ float64) bool { return r.ReplicasCompleted > 0 },
		msg:  "expected a reactive replication to complete"},
	{flag: "expect-recovered",
		help: "exit 1 unless node failure recovered at least one stream (cluster)",
		ok:   func(r *loadgen.Result, _ float64) bool { return r.FailoverRecovered > 0 },
		msg:  "expected node failure to recover streams; none recovered"},
	{flag: "expect-spilled",
		help: "exit 1 unless at least one session was admitted cross-site (metro)",
		ok:   func(r *loadgen.Result, _ float64) bool { return r.Spilled > 0 },
		msg:  "expected cross-site spill admissions; every session stayed home"},
	{flag: "expect-site-recovered",
		help: "exit 1 unless the site failure re-admitted at least one session on survivors (metro)",
		ok:   func(r *loadgen.Result, _ float64) bool { return r.SiteRecovered > 0 },
		msg:  "expected the site failure to re-admit sessions on survivors; none recovered"},
	{flag: "min-active-sites", threshold: 0,
		help: "exit 1 unless at least this many sites are serving sessions at the end (metro)",
		ok:   func(r *loadgen.Result, min float64) bool { return active(r.SiteServed) >= int(min) },
		msg:  "sessions served from too few sites"},
	{flag: "expect-joins",
		help: "exit 1 unless at least one live viewer was admitted (live)",
		ok:   func(r *loadgen.Result, _ float64) bool { return r.LiveJoins > 0 },
		msg:  "expected live viewers to be admitted; every join was refused"},
	{flag: "expect-subtree-degraded",
		help: "exit 1 unless at least one channel subtree dropped a tier under join " +
			"pressure instead of refusing (live)",
		ok:  func(r *loadgen.Result, _ float64) bool { return r.SubtreeDegraded > 0 },
		msg: "expected a channel subtree to degrade under join pressure; no tier drops happened"},
	{flag: "min-fanout-ratio", threshold: 0.0,
		help: "exit 1 unless delivered copies per transmitted copy reached this " +
			"multiple (live; 1.0 means the switch saved nothing)",
		ok:  func(r *loadgen.Result, min float64) bool { return r.FanoutRatio >= min },
		msg: "fan-out delivered too few copies per transmitted copy"},
	{flag: "expect-degraded",
		help: "exit 1 unless at least one session dropped a quality tier (adaptive)",
		ok:   func(r *loadgen.Result, _ float64) bool { return r.DegradeEvents > 0 },
		msg:  "expected sessions to degrade instead of refuse; no tier drops happened"},
	{flag: "expect-restored",
		help: "exit 1 unless at least one degraded session climbed back up (adaptive)",
		ok:   func(r *loadgen.Result, _ float64) bool { return r.RestoreEvents > 0 },
		msg:  "expected freed capacity to restore degraded sessions; no restores happened"},
	{flag: "min-cache-ratio", threshold: 0.0,
		help: "exit 1 unless the cached run held at least this multiple of the no-cache " +
			"ablation's streams (requires -cache-ablation)",
		ok:  func(r *loadgen.Result, min float64) bool { return r.CacheRatio >= min },
		msg: "cached run held too small a multiple of the no-cache twin's streams"},
	// The cpu-bound proof is strict ordering: the CPU said no while the
	// disks never did and still have room.
	{flag: "expect-cpu-refusals",
		help: "exit 1 unless the CPU leg refused at least one open while the disks still had " +
			"room and no disk refusal occurred (the cpu-bound over-subscription proof)",
		ok:  func(r *loadgen.Result, _ float64) bool { return r.CPURefused > 0 },
		msg: "expected the CPU leg to refuse opens; it admitted everything"},
	{flag: "expect-cpu-refusals",
		ok:  func(r *loadgen.Result, _ float64) bool { return r.StorageRefused == 0 },
		msg: "disk admission refused opens; CPU was supposed to be the bottleneck"},
	{flag: "expect-cpu-refusals",
		ok:  func(r *loadgen.Result, _ float64) bool { return r.DiskCommitted < 1 },
		msg: "disk budget exhausted; CPU did not refuse first"},
}

// options is everything the flags set that is not a Config field.
type options struct {
	cfg                                          loadgen.Config
	asJSON                                       bool
	metricsEvery                                 sim.Duration
	metricsOut, traceOut, cpuProfile, memProfile string
}

// register declares pegload's flags on fs: one per tagged Config field
// (bindConfig), the output flags, and one per ablation and assertion
// table row.
func register(fs *flag.FlagSet) *options {
	o := &options{metricsEvery: sim.Second / 2}
	bindConfig(fs, &o.cfg)
	fs.Int("partitions", 0,
		"ignored: the event kernel runs on one goroutine; the flag still parses so "+
			"older command lines run unchanged")
	fs.BoolVar(&o.asJSON, "json", false, "emit the scoreboard as JSON")
	fs.StringVar(&o.metricsOut, "metrics-out", "",
		"write the telemetry time series (columnar JSON, one values column per "+
			"metric on a shared t_ns axis) to this file")
	fs.Var((*seconds)(&o.metricsEvery), "metrics-every",
		"sim-time sampling cadence in `seconds` for -metrics-out")
	fs.StringVar(&o.traceOut, "trace-out", "",
		"write the per-session lifecycle trace (JSON lines: open/admitted/refused/"+
			"degrade/restore/cache-served/demoted/underrun/close, with per-leg "+
			"admission headrooms) to this file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	for _, a := range ablations {
		fs.Bool(a.flag, false, a.help)
	}
	for _, a := range assertions {
		if a.help == "" {
			continue
		}
		switch a.threshold.(type) {
		case nil:
			fs.Bool(a.flag, false, a.help)
		case int:
			fs.Int(a.flag, 0, a.help)
		case float64:
			fs.Float64(a.flag, 0, a.help)
		}
	}
	return o
}

// bindConfig registers a flag for every Config field with a flag tag,
// bound to the field, defaulting to its zero value — the mode table
// supplies the defaults — with the help tag as its usage line.
func bindConfig(fs *flag.FlagSet, c *loadgen.Config) {
	v := reflect.ValueOf(c).Elem()
	for i := range v.NumField() {
		f := v.Type().Field(i)
		name, ok := f.Tag.Lookup("flag")
		if !ok {
			continue
		}
		help := f.Tag.Get("help")
		switch p := v.Field(i).Addr().Interface().(type) {
		case *sim.Duration:
			fs.Var((*seconds)(p), name, help)
		case flag.Value:
			fs.Var(p, name, help)
		case *int:
			fs.IntVar(p, name, 0, help)
		case *int64:
			fs.Int64Var(p, name, 0, help)
		case *float64:
			fs.Float64Var(p, name, 0, help)
		case *bool:
			fs.BoolVar(p, name, false, help)
		default:
			panic("pegload: Config." + f.Name + " has a flag tag but no flag type")
		}
	}
}

// given reports whether the named flag is in force — a bool set, a
// number above zero — and its value as a threshold.
func given(fs *flag.FlagSet, name string) (min float64, on bool) {
	switch v := fs.Lookup(name).Value.(flag.Getter).Get().(type) {
	case bool:
		return 0, v
	case int:
		return float64(v), v > 0
	case float64:
		return v, v > 0
	}
	panic("pegload: -" + name + " is not a bool, int or float flag")
}

// usage reports an ablation flag the run cannot honour, or a config
// no mode accepts.
func (o *options) usage(fs *flag.FlagSet) error {
	for _, a := range ablations {
		if _, on := given(fs, a.flag); !on {
			continue
		}
		if _, ok := given(fs, a.needs); !ok {
			return fmt.Errorf("-%s requires -%s", a.flag, a.needs)
		}
		twin := o.cfg
		if a.off(&twin); twin == o.cfg {
			return fmt.Errorf("-%s has nothing to ablate: the run already has it off", a.flag)
		}
	}
	return o.cfg.Validate()
}

// failures evaluates every assertion whose flag is in force.
func failures(fs *flag.FlagSet, r *loadgen.Result) (msgs []string) {
	for _, a := range assertions {
		min, on := given(fs, a.flag)
		switch {
		case !on || a.ok(r, min):
		case a.threshold == nil:
			msgs = append(msgs, a.msg)
		default:
			msgs = append(msgs, fmt.Sprintf("%s (-%s %v)", a.msg, a.flag, min))
		}
	}
	return msgs
}

func die(code int, what ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"pegload:"}, what...)...)
	os.Exit(code)
}

func writeOut(path, what string, emit func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = emit(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		die(1, what+":", err)
	}
}

func main() {
	fs := flag.CommandLine
	o := register(fs)
	flag.Parse()

	cfg := &o.cfg
	cfg.Trace = o.traceOut != ""
	if o.metricsOut != "" {
		if cfg.MetricsEvery = o.metricsEvery; cfg.MetricsEvery <= 0 {
			die(2, "-metrics-every must be positive with -metrics-out")
		}
	}
	if err := o.usage(fs); err != nil {
		die(2, err)
	}
	if v := fs.Lookup("partitions").Value.String(); v != "0" {
		fmt.Fprintf(os.Stderr, "pegload: -partitions %s ignored: the event kernel runs on one goroutine\n", v)
	}

	var folds []func(*loadgen.Result)
	for _, a := range ablations {
		if _, on := given(fs, a.flag); on {
			twin := *cfg
			a.off(&twin)
			twin.Trace, twin.MetricsEvery = false, 0
			ran := loadgen.Build(twin).Run()
			folds = append(folds, func(r *loadgen.Result) { a.fold(r, ran) })
		}
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			die(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(1, "cpuprofile:", err)
		}
		defer f.Close()
	}
	sc := loadgen.Build(*cfg)
	res := sc.Run()
	if o.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		runtime.GC() // surface live retention, not transient garbage
		writeOut(o.memProfile, "memprofile", pprof.WriteHeapProfile)
	}
	if o.metricsOut != "" {
		writeOut(o.metricsOut, "metrics-out", sc.WriteMetrics)
	}
	if o.traceOut != "" {
		writeOut(o.traceOut, "trace-out", sc.WriteTrace)
	}
	for _, fold := range folds {
		fold(&res)
	}
	if o.asJSON {
		out, err := res.JSON()
		if err != nil {
			die(1, err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Println(res)
	}

	msgs := failures(fs, &res)
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "pegload: check failed:", m)
	}
	if len(msgs) > 0 {
		os.Exit(1)
	}
}
