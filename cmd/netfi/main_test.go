package main

import "testing"

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
