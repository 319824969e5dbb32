package fileserver

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// A refusal formatted on demand reads exactly as the fmt.Errorf it
// stands in for, and matches its sentinel: each refusal cachePlan
// makes, and AdmitDegraded's over-commit.
func TestLazyRefusalsMatchErrorf(t *testing.T) {
	for _, c := range []struct {
		miss noWake
		want error
	}{
		{noWake{"%[1]s: wake geometry is %[2]d bytes/round, stream needs %[3]d", "t1", 19200, 9600},
			fmt.Errorf("%w: %s: wake geometry is %d bytes/round, stream needs %d", ErrNoWake, "t1", 19200, 9600)},
		{noWake{format: "%[1]s: wake not resident", path: "t2"},
			fmt.Errorf("%w: %s: wake not resident", ErrNoWake, "t2")},
		{noWake{"%[1]s: pin budget exhausted (%[2]d of %[3]d pinned)", "t3", 65536, 98304},
			fmt.Errorf("%w: %s: pin budget exhausted (%d of %d pinned)", ErrNoWake, "t3", 65536, 98304)},
	} {
		var err error = &c.miss
		if err.Error() != c.want.Error() || !errors.Is(err, ErrNoWake) {
			t.Errorf("%q (Is ErrNoWake: %v), want %q", err, errors.Is(err, ErrNoWake), c.want)
		}
	}
	cost, committed, budget := 1500*sim.Microsecond, 180*sim.Millisecond, 190*sim.Millisecond
	var err error = &overCommit{"t4", cost, committed, budget}
	want := fmt.Errorf("%w: %s needs %v/round, %v of %v committed", ErrOverCommit, "t4", cost, committed, budget)
	if err.Error() != want.Error() || !errors.Is(err, ErrOverCommit) {
		t.Errorf("%q (Is ErrOverCommit: %v), want %q", err, errors.Is(err, ErrOverCommit), want)
	}
}
