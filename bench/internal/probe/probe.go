// Package probe is the timing kit shared by the per-layer probe programs
// under bench/probes: each probe times calls into one layer's public
// functions and prints one JSON line per metric for the harness to read.
package probe

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Result is one measurement: the median over batches of host
// nanoseconds per operation, and heap bytes allocated per operation
// over all measured batches.
type Result struct {
	NsPerOp    float64
	BytesPerOp float64
}

// Budget parses the probe's only flag: how long each Measure call may
// run.
func Budget() time.Duration {
	secs := flag.Float64("seconds", 0.3, "host seconds per measurement")
	flag.Parse()
	return time.Duration(*secs * float64(time.Second))
}

// Measure sizes a batch so that the budget holds about ten of them,
// then runs batches until the budget is spent (five at least). The
// median over batches keeps one GC pause or scheduler hiccup from
// moving the number.
func Measure(budget time.Duration, batch func(n int)) Result {
	n := 1
	for {
		t0 := time.Now()
		batch(n)
		if d := time.Since(t0); d >= budget/20 || n >= 1<<26 {
			n = max(1, int(float64(n)*float64(budget/10)/float64(max(d, 1))))
			break
		}
		n *= 2
	}
	var (
		perOp  []float64
		ops    int
		m0, m1 runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	for start := time.Now(); len(perOp) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		batch(n)
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(n))
		ops += n
	}
	runtime.ReadMemStats(&m1)
	sort.Float64s(perOp)
	mid := perOp[len(perOp)/2]
	if len(perOp)%2 == 0 {
		mid = (perOp[len(perOp)/2-1] + mid) / 2
	}
	return Result{NsPerOp: mid, BytesPerOp: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)}
}

// Emit prints one metric as the JSON line the harness parses.
func Emit(name, unit string, value float64) {
	line, err := json.Marshal(struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Value float64 `json:"value"`
	}{name, unit, value})
	Check(err)
	fmt.Println(string(line))
}

// Check is Fatal for a non-nil error; it fits the layers' func(error)
// completion callbacks as it stands.
func Check(err error) {
	if err != nil {
		Fatal(err)
	}
}

// Fatal reports a probe whose set-up failed; the harness drops the
// probe's metrics and carries on.
func Fatal(v any) {
	fmt.Fprintln(os.Stderr, "probe:", v)
	os.Exit(1)
}
