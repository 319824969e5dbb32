package trace_test

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func TestShortLivedFractionMatchesPaper(t *testing.T) {
	// Baker et al. 1991: ~70% of files die within 30 s.
	ops := trace.Baker(sim.NewRand(11), trace.DefaultBaker(3000))
	frac := trace.ShortLivedFraction(ops, 30*sim.Second)
	if frac < 0.66 || frac > 0.74 {
		t.Fatalf("short-lived fraction = %.3f, want 0.70 ± 0.04", frac)
	}
}

func TestEveryFileCreatedBeforeDeath(t *testing.T) {
	ops := trace.Baker(sim.NewRand(3), trace.DefaultBaker(400))
	created := map[string]sim.Time{}
	for _, op := range ops {
		switch op.Kind {
		case trace.OpCreate:
			created[op.Name] = op.At
		case trace.OpWrite, trace.OpDelete:
			born, ok := created[op.Name]
			if !ok {
				t.Fatalf("%v on %s before creation", op.Kind, op.Name)
			}
			if op.At < born {
				t.Fatalf("op at %v before creation at %v", op.At, born)
			}
		}
	}
}

func TestSizesWithinBounds(t *testing.T) {
	cfg := trace.DefaultBaker(500)
	ops := trace.Baker(sim.NewRand(9), cfg)
	for _, op := range ops {
		if op.Kind != trace.OpWrite {
			continue
		}
		if op.Size < 256 || op.Size > cfg.MaxSize {
			t.Fatalf("size %d out of [256, %d]", op.Size, cfg.MaxSize)
		}
	}
}

// Property: schedules are sorted and deterministic for any seed.
func TestScheduleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := trace.Baker(sim.NewRand(seed), trace.DefaultBaker(50))
		b := trace.Baker(sim.NewRand(seed), trace.DefaultBaker(50))
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
			if i > 0 && a[i].At < a[i-1].At {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 20)); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteFractionRoughlyRespected(t *testing.T) {
	cfg := trace.DefaultBaker(2000)
	ops := trace.Baker(sim.NewRand(21), cfg)
	var deletes, rewrites int
	seenWrite := map[string]bool{}
	for _, op := range ops {
		switch op.Kind {
		case trace.OpDelete:
			deletes++
		case trace.OpWrite:
			if seenWrite[op.Name] {
				rewrites++
			}
			seenWrite[op.Name] = true
		}
	}
	frac := float64(rewrites) / float64(rewrites+deletes)
	if frac < cfg.RewriteFrac-0.05 || frac > cfg.RewriteFrac+0.05 {
		t.Fatalf("rewrite fraction %.3f, want %.2f ± 0.05", frac, cfg.RewriteFrac)
	}
}
