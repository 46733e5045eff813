package main

import (
	"testing"

	"netfi/internal/sim"
)

func TestRunUsageErrors(t *testing.T) {
	if code := run([]string{}); code != 2 {
		t.Errorf("no args -> %d, want 2", code)
	}
	if code := run([]string{"bogus-experiment"}); code != 2 {
		t.Errorf("unknown experiment -> %d, want 2", code)
	}
	if code := run([]string{"-not-a-flag"}); code != 2 {
		t.Errorf("bad flag -> %d, want 2", code)
	}
	// Bad input at the fabric and scale boundaries is a usage error, in
	// text mode as in -json mode, never a panic or a clean exit.
	for _, args := range [][]string{
		{"-switches", "1", "-hosts", "1", "fabric"},
		{"-switches", "0", "fabric"},
		{"-json", "-switches", "0", "fabric"},
		{"-scale", "-1", "chaos"},
		{"-scale", "-1", "table2"},
		{"-scale", "0", "table1"},
		{"-scale", "NaN", "table1"},
		{"-scale", "+Inf", "table1"},
		{"table1", "-scale", "-1"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%v -> %d, want 2", args, code)
		}
	}
}

func TestRunJSON(t *testing.T) {
	if code := run([]string{"-json", "monitor"}); code != 0 {
		t.Errorf("-json monitor -> %d, want 0", code)
	}
	// Sections without a machine-readable form are a usage error.
	if code := run([]string{"-json", "table1"}); code != 2 {
		t.Errorf("-json table1 -> %d, want 2", code)
	}
}

func TestRunTable1(t *testing.T) {
	if code := run([]string{"table1"}); code != 0 {
		t.Errorf("table1 -> %d, want 0", code)
	}
}

func TestRunSec434(t *testing.T) {
	if code := run([]string{"-seed", "41", "sec434"}); code != 0 {
		t.Errorf("sec434 -> %d, want 0", code)
	}
}

// A -scale small enough to truncate a count or a duration to zero still
// runs the least work, not the campaign's full-length default; -scale 0.1
// keeps the values every earlier release used.
func TestScaledSectionOptions(t *testing.T) {
	for _, tc := range []struct {
		scale                 float64
		trials, forks, rounds int
		table4, sec431, pass  sim.Duration
	}{
		{1e-18, 1, 1, 1, sim.Picosecond, sim.Picosecond, sim.Picosecond},
		{0.0005, 1, 1, 10, 850 * sim.Microsecond, 2500 * sim.Microsecond, sim.Millisecond},
		{0.05, 1, 50, 1000, 85 * sim.Millisecond, 250 * sim.Millisecond, 100 * sim.Millisecond},
		{0.1, 1, 100, 2000, 170 * sim.Millisecond, 500 * sim.Millisecond, 200 * sim.Millisecond},
	} {
		o := expOpts{seed: 1, scale: tc.scale, workers: 1}
		if got := resilienceOptions(o).Trials; got != tc.trials {
			t.Errorf("scale %g: resilience trials = %d, want %d", tc.scale, got, tc.trials)
		}
		if got := chaosOptions(o).Forks; got != tc.forks {
			t.Errorf("scale %g: chaos forks = %d, want %d", tc.scale, got, tc.forks)
		}
		if got := table2Options(o).Rounds; got != tc.rounds {
			t.Errorf("scale %g: table2 rounds = %d, want %d", tc.scale, got, tc.rounds)
		}
		if got := table4Options(o).Duration; got != tc.table4 {
			t.Errorf("scale %g: table4 duration = %v, want %v", tc.scale, got, tc.table4)
		}
		if got := sec431Options(o).Duration; got != tc.sec431 {
			t.Errorf("scale %g: sec431 duration = %v, want %v", tc.scale, got, tc.sec431)
		}
		if got := passthroughOptions(o).Duration; got != tc.pass {
			t.Errorf("scale %g: pass-through duration = %v, want %v", tc.scale, got, tc.pass)
		}
	}
}
