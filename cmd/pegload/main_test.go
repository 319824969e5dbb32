package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/loadgen"
)

func parse(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("pegload", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return fs
}

// TestFlagSurface pins the registered flag set and every default to
// testdata/flags.golden: bench/workloads.go, scripts/smokes.sh and the
// README spell these names, so a refactor must not rename, drop or
// re-default one silently. An intended change edits the golden file.
func TestFlagSurface(t *testing.T) {
	var got strings.Builder
	parse(t).VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s %q\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag surface changed; testdata/flags.golden wants\n%s\nregistered\n%s", want, got.String())
	}
}

// satisfying is a scoreboard every assertion passes on (the cpu-bound
// proof aside, which wants no disk refusal where the storage proof
// wants one).
func satisfying(flag string) *loadgen.Result {
	r := &loadgen.Result{
		Config:   loadgen.Config{Cluster: true},
		Admitted: 10, FramesDelivered: 100, DiskBytesRead: 1 << 20,
		StorageStreams: 100, StorageRefused: 1,
		NodeAdmissions: []int64{4, 3, 3}, ReplicasCompleted: 1, FailoverRecovered: 1,
		Spilled: 1, SiteRecovered: 1, SiteServed: []int64{5, 5, 0}, SpillAblationAdmitted: 9,
		LiveJoins: 8, SubtreeDegraded: 1, FanoutRatio: 2, UnicastAblationJoins: 7,
		DegradeEvents: 2, RestoreEvents: 1, CacheRatio: 3, AblationStreams: 30,
		CPURefused: 1, DiskCommitted: 0.5,
	}
	if flag == "expect-cpu-refusals" {
		r.StorageRefused = 0
	}
	return r
}

// TestAssertionTable arms every assertion flag in turn: against an
// empty scoreboard it must fail with its row's message, against a
// satisfying one it must pass.
func TestAssertionTable(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range assertions {
		if seen[a.flag] {
			continue
		}
		seen[a.flag] = true
		arg := "-" + a.flag
		if a.threshold != nil {
			arg += "=2"
		}
		fs := parse(t, arg)
		msgs := failures(fs, &loadgen.Result{})
		if len(msgs) == 0 || !strings.HasPrefix(msgs[0], a.msg) {
			t.Errorf("%s on an empty scoreboard: failures %q, want %q first", arg, msgs, a.msg)
		}
		if msgs := failures(fs, satisfying(a.flag)); len(msgs) != 0 {
			t.Errorf("%s on a satisfying scoreboard: %q", arg, msgs)
		}
	}
	if len(seen) != 16 {
		t.Errorf("%d assertion flags, want -check, 10 -expect-* and 5 -min-*", len(seen))
	}
	if msgs := failures(parse(t), &loadgen.Result{}); len(msgs) != 0 {
		t.Errorf("no assertion flag given, yet: %q", msgs)
	}
}

// TestCheckRows: each -check row fails on the scoreboard that breaks
// just it.
func TestCheckRows(t *testing.T) {
	fs := parse(t, "-check")
	for _, tc := range []struct {
		want  string
		spoil func(r *loadgen.Result)
	}{
		{"no stream legs admitted", func(r *loadgen.Result) { r.Admitted, r.SpillAblationAdmitted = 0, 0 }},
		{"no frames delivered", func(r *loadgen.Result) { r.FramesDelivered = 0 }},
		{"buffer underruns", func(r *loadgen.Result) { r.Underruns = 1 }},
		{"read nothing off the disks", func(r *loadgen.Result) { r.DiskBytesRead = 0 }},
		{"EDF deadline misses", func(r *loadgen.Result) { r.DeadlineMisses = 1 }},
		{"no-spill twin", func(r *loadgen.Result) { r.SpillAblationAdmitted = r.Admitted }},
		{"unicast twin", func(r *loadgen.Result) { r.UnicastAblationJoins = r.LiveJoins }},
	} {
		r := satisfying("check")
		tc.spoil(r)
		if msgs := failures(fs, r); len(msgs) != 1 || !strings.Contains(msgs[0], tc.want) {
			t.Errorf("broken %q: failures %q", tc.want, msgs)
		}
	}
	// A run with no disks need not read any.
	mesh := satisfying("check")
	mesh.Config, mesh.DiskBytesRead = loadgen.Config{}, 0
	if msgs := failures(fs, mesh); len(msgs) != 0 {
		t.Errorf("mesh run: %q", msgs)
	}
}

// TestUsage: an ablation needs its mode and something to ablate, and
// the mode combinations are Config.Validate's call.
func TestUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" for none
	}{
		{[]string{"-cluster", "-cache-mb", "64", "-cache-ablation"}, ""},
		{[]string{"-cluster", "-cache-ablation"}, "-cache-ablation requires -cache-mb"},
		{[]string{"-unicast-ablation"}, "-unicast-ablation requires -live"},
		{[]string{"-cluster", "-spill-ablation"}, "-spill-ablation requires -metro"},
		{[]string{"-metro", "-spill-ablation", "-no-spill"}, "nothing to ablate"},
		{[]string{"-live", "-from-storage"}, "live cannot be combined with from-storage"},
		{[]string{"-partitions", "2"}, "cannot shard"},
	} {
		fs := flag.NewFlagSet("pegload", flag.ContinueOnError)
		o := register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := o.usage(fs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}
